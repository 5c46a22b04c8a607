package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed boundary crossing of one request. Times are seconds
// since the tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID        int     `json:"id"`
	Parent    int     `json:"parent"`
	Name      string  `json:"name"`
	Req       int     `json:"req"`
	Start     float64 `json:"start_s"`
	End       float64 `json:"end_s"`
	ReqBytes  int64   `json:"req_bytes,omitempty"`
	RespBytes int64   `json:"resp_bytes,omitempty"`
	// Wait and Service are the scheduler's wait_seconds and
	// service_seconds, carried on the client span that read them.
	Wait    float64 `json:"wait_s,omitempty"`
	Service float64 `json:"service_s,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps the spans of a traced run in memory. Client and router
// spans nest: each records the innermost open span of its request as its
// parent.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span      // spans[id-1]
	open  map[int]int // request → innermost open client/router span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: map[int]int{}} }

func (t *tracer) now() float64 { return time.Since(t.epoch).Seconds() }

// begin opens a span; a nesting span becomes the parent of the request's
// later spans until it ends.
func (t *tracer) begin(name string, req int, nest bool) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.open[req], Name: name, Req: req, Start: start})
	if nest {
		t.open[req] = id
	}
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = end
	if t.open[s.Req] == id {
		if s.Parent == 0 {
			delete(t.open, s.Req)
		} else {
			t.open[s.Req] = s.Parent
		}
	}
}

func (t *tracer) endNode(id int, reqBytes, respBytes int64) {
	t.end(id)
	t.mu.Lock()
	t.spans[id-1].ReqBytes, t.spans[id-1].RespBytes = reqBytes, respBytes
	t.mu.Unlock()
}

func (t *tracer) endClient(id int, resp *response) {
	t.end(id)
	if resp == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Wait, t.spans[id-1].Service = resp.WaitSeconds, resp.ServiceSeconds
	t.mu.Unlock()
}

// add records a finished span (the core replay's).
func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
}

// traceTag marks the benchmark's traceparent ids; the low half of the
// trace id carries the stream index + 1.
const traceTag = 0x70657266626e6368

func traceparent(idx int) string {
	return fmt.Sprintf("00-%016x%016x-%016x-01", uint64(traceTag), uint64(idx)+1, uint64(idx)+1)
}

// requestID recovers the stream index from a propagated traceparent, or
// -1 when there is none.
func requestID(r *http.Request) int {
	parts := strings.Split(r.Header.Get("traceparent"), "-")
	if len(parts) != 4 || len(parts[1]) != 32 {
		return -1
	}
	v, err := strconv.ParseUint(parts[1][16:], 16, 64)
	if err != nil || v == 0 {
		return -1
	}
	return int(v - 1)
}

// layerSample is one request's per-layer breakdown, in seconds.
type layerSample struct {
	clientSelf, routerSelf, nodeSelf float64
	wait, service                    float64
}

// breakdown derives the scheduler's queue and service spans (from the
// JobJSON wait/service times, placed at the end of the final node span)
// and each layer's self time: a span's duration minus its children's.
// It returns the per-request samples, the node spans' mean request and
// response sizes in bytes, and the full span list.
func (t *tracer) breakdown() (samples []layerSample, reqBytes, respBytes float64, all []span) {
	t.mu.Lock()
	all = append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]int{}
	for i, s := range all {
		children[s.Parent] = append(children[s.Parent], i)
	}
	var nodes int
	for _, s := range all {
		if strings.HasPrefix(s.Name, "node.") {
			nodes++
			reqBytes += float64(s.ReqBytes)
			respBytes += float64(s.RespBytes)
		}
	}
	if nodes > 0 {
		reqBytes /= float64(nodes)
		respBytes /= float64(nodes)
	}
	n := len(all)
	for ci := 0; ci < n; ci++ {
		c := all[ci]
		if c.Name != "client" || c.Service == 0 {
			continue
		}
		var router *span
		for _, k := range children[c.ID] {
			if all[k].Name == "router" {
				router = &all[k]
			}
		}
		if router == nil {
			continue
		}
		var last *span
		var nodeSum float64
		for _, k := range children[router.ID] {
			nodeSum += all[k].dur()
			if last == nil || all[k].End > last.End {
				last = &all[k]
			}
		}
		if last == nil {
			continue
		}
		svcStart := last.End - c.Service
		all = append(all,
			span{ID: len(all) + 1, Parent: last.ID, Name: "sched.queue", Req: c.Req, Start: svcStart - c.Wait, End: svcStart},
			span{ID: len(all) + 2, Parent: last.ID, Name: "sched.service", Req: c.Req, Start: svcStart, End: last.End})
		samples = append(samples, layerSample{
			clientSelf: c.dur() - router.dur(),
			routerSelf: router.dur() - nodeSum,
			nodeSelf:   last.dur() - c.Wait - c.Service,
			wait:       c.Wait,
			service:    c.Service,
		})
	}
	return samples, reqBytes, respBytes, all
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
