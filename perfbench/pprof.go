package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// The traced run attributes a runtime/pprof CPU profile to packages. It
// writes the profile to a file and reads each sample's stack back from
// `go tool pprof -traces`.

// cpuProfile is a decoded profile: each sample's stack as function names,
// leaf first (inlined frames innermost first), with its sample count.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// readCPUProfile lists the stacks of the CPU profile at path with the Go
// toolchain's pprof, which must be on PATH (run.sh needs it to build).
func readCPUProfile(path string) (*cpuProfile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", "-sample_index=samples", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(out)
}

// parseTraces reads `go tool pprof -traces -sample_index=samples` output:
// a header, then one block per stack, each opened by a dashed separator,
// whose first line is "<count> <leaf>" and whose further lines are the
// callers, inlined frames marked " (inline)".
func parseTraces(out []byte) (*cpuProfile, error) {
	p := &cpuProfile{}
	in := false
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----------+") {
			in = true
			p.stacks = append(p.stacks, nil)
			p.counts = append(p.counts, 0)
			continue
		}
		f := strings.TrimSpace(strings.TrimSuffix(line, " (inline)"))
		if !in || f == "" {
			continue
		}
		i := len(p.stacks) - 1
		if len(p.stacks[i]) == 0 {
			count, leaf, ok := strings.Cut(f, " ")
			n, err := strconv.ParseInt(count, 10, 64)
			if !ok || err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample line %q", line)
			}
			p.counts[i] = n
			f = strings.TrimSpace(leaf)
		}
		p.stacks[i] = append(p.stacks[i], f)
	}
	// The last separator closes the last block.
	for len(p.stacks) > 0 && len(p.stacks[len(p.stacks)-1]) == 0 {
		p.stacks, p.counts = p.stacks[:len(p.stacks)-1], p.counts[:len(p.counts)-1]
	}
	if len(p.stacks) == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return p, nil
}

// cpuBuckets are the flat-attribution buckets reported as cpu_share.*.
var cpuBuckets = []string{
	"la", "sparse", "ortho", "dist", "graph", "matgen", "core", "gpu",
	"sched", "server", "cluster", "obs", "encoding_json", "strconv", "fnv",
	"net_http", "syscall", "gc", "malloc", "runtime", "bench", "other",
}

// cpuCumulative are the functions whose inclusive share is reported as
// cpu_cum.*: a served-path sample counts if the function is anywhere on
// its stack. Samples of the benchmark's own client never count, so
// cpu_cum.encoding_json is the server's and router's JSON alone.
var cpuCumulative = []struct{ name, prefix string }{
	{"core_newproblem", "cagmres/internal/core.NewProblem"},
	{"dist_distribute", "cagmres/internal/dist.Distribute"},
	{"sparse_readmm", "cagmres/internal/sparse.ReadMatrixMarket"},
	{"encoding_json", "encoding/json."},
}

// attribute splits the profile's samples into flat package buckets and
// cumulative function shares, each as a percentage of all samples. A
// sample is gc when any frame is garbage-collector work, bench when it
// was taken on a client goroutine (request generation, send, oracle),
// malloc when its leaf is in the runtime under mallocgc, else its
// leaf's package.
func (p *cpuProfile) attribute() (flat, cum map[string]float64, total int64) {
	flat, cum = map[string]float64{}, map[string]float64{}
	for i, stack := range p.stacks {
		n := p.counts[i]
		total += n
		flat[flatBucket(stack)] += float64(n)
		if onClient(stack) {
			continue
		}
		for _, c := range cpuCumulative {
			for _, f := range stack {
				if strings.HasPrefix(f, c.prefix) {
					cum[c.name] += float64(n)
					break
				}
			}
		}
	}
	if total > 0 {
		for k := range flat {
			flat[k] *= 100 / float64(total)
		}
		for k := range cum {
			cum[k] *= 100 / float64(total)
		}
	}
	return flat, cum, total
}

func flatBucket(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	mallocing := false
	for _, f := range stack {
		for _, g := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
			"runtime.markroot", "runtime.sweepone", "runtime.scanobject", "runtime.(*sweepLocked)"} {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
		if f == "runtime.mallocgc" {
			mallocing = true
		}
	}
	if onClient(stack) {
		return "bench"
	}
	pkg := pkgOf(stack[0])
	switch {
	case strings.HasPrefix(pkg, "cagmres/internal/"):
		b := strings.TrimPrefix(pkg, "cagmres/internal/")
		if i := strings.IndexByte(b, '/'); i >= 0 {
			b = b[:i]
		}
		for _, k := range cpuBuckets {
			if k == b {
				return b
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/"):
		if mallocing {
			return "malloc"
		}
		return "runtime"
	case isBench(pkg):
		return "bench"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "strconv":
		return "strconv"
	case pkg == "hash/fnv":
		return "fnv"
	case strings.HasPrefix(pkg, "net/http") || pkg == "net/textproto" || pkg == "bufio":
		return "net_http"
	case pkg == "net" || pkg == "internal/poll" || pkg == "syscall":
		return "syscall"
	}
	return "other"
}

// isBench reports whether pkg is this program: main in the binary,
// cagmres/perfbench in its test.
func isBench(pkg string) bool { return pkg == "main" || pkg == "cagmres/perfbench" }

// onClient reports whether a stack was sampled on a closed-loop client
// goroutine, whose root is the closure (*stack).run starts.
func onClient(stack []string) bool {
	for _, f := range stack {
		if isBench(pkgOf(f)) && strings.Contains(f, ".(*stack).run.") {
			return true
		}
	}
	return false
}

// pkgOf returns the import path of a symbol such as
// "cagmres/internal/la.(*Dense).At" or "runtime.mallocgc".
func pkgOf(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndexByte(sym, '/')
	if i := strings.IndexByte(sym[slash+1:], '.'); i >= 0 {
		return sym[:slash+1+i]
	}
	return sym
}
