package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is what one closed-loop measurement saw.
type window struct {
	attempted, ok int
	latMS         []float64 // send → fully read response, oracle-passing solves
	kindMS        map[string][]float64
	modeled       map[int]float64 // stream index → modeled seconds, oracle-passing solves
	elapsed       float64         // wall seconds
	cpu           float64         // process user+sys seconds
	alloc         uint64          // bytes allocated
	next          int             // first stream index not sent
}

// run drives w's stream from index from with w.clients closed-loop
// clients: each sends its next request only after the previous reply is
// fully read, with no retries. It stops once dur has passed and every
// index below minEnd has been sent; in-flight requests finish. With a
// tracer it records a client span per request.
func (s *stack) run(w *workload, chk *checker, from, minEnd int, dur time.Duration, tr *tracer) window {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	var next atomic.Int64
	next.Store(int64(from))
	parts := make([]window, w.clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(p *window) {
			defer wg.Done()
			p.modeled = map[int]float64{}
			p.kindMS = map[string][]float64{}
			for {
				i := int(next.Add(1)) - 1
				if i >= minEnd && time.Since(start) >= dur {
					p.next = i
					return
				}
				r := w.gen(i)
				key := r.key()
				var id int
				if tr != nil {
					id = tr.begin("client", i, true)
				}
				t0 := time.Now()
				status, raw, err := s.send(r)
				lat := time.Since(t0)
				r.body = nil // the client holds no request body past its send
				p.attempted++
				if err != nil {
					if tr != nil {
						tr.endClient(id, nil)
					}
					chk.fail(classTransport)
					continue
				}
				v, resp := chk.check(r, key, status, raw)
				if tr != nil {
					tr.endClient(id, resp)
				}
				if v.class == classOK {
					p.ok++
					p.latMS = append(p.latMS, float64(lat)/1e6)
					p.kindMS[r.kind] = append(p.kindMS[r.kind], float64(lat)/1e6)
					p.modeled[i] = resp.ModeledSeconds
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	out := window{elapsed: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0,
		modeled: map[int]float64{}, kindMS: map[string][]float64{}, next: parts[0].next}
	runtime.ReadMemStats(&ms1)
	out.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	for _, p := range parts {
		out.attempted += p.attempted
		out.ok += p.ok
		out.latMS = append(out.latMS, p.latMS...)
		for k, v := range p.modeled {
			out.modeled[k] = v
		}
		for k, v := range p.kindMS {
			out.kindMS[k] = append(out.kindMS[k], v...)
		}
		// Sends are contiguous from `from`: the first index any client
		// declined is where the next window starts.
		if p.next < out.next {
			out.next = p.next
		}
	}
	return out
}

// send posts one request and reads the whole response.
func (s *stack) send(r *request) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/solve", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent(r.idx))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" definition), or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
