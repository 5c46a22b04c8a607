package main

import (
	"testing"
)

// A trimmed `go tool pprof -traces -sample_index=samples` listing.
const tracesFixture = `File: perfbench-bin
Type: samples
Duration: 3.13s, Total samples = 5
-----------+-------------------------------------------------------
         3   cagmres/internal/la.Dot
             cagmres/internal/core.runCAGMRES
-----------+-------------------------------------------------------
         2   bufio.NewReaderSize (inline)
             cagmres/internal/sparse.ReadMatrixMarket
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	p, err := parseTraces([]byte(tracesFixture))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) != 2 || p.counts[0] != 3 || p.counts[1] != 2 {
		t.Fatalf("stacks %q counts %v", p.stacks, p.counts)
	}
	if got := p.stacks[1]; len(got) != 2 || got[0] != "bufio.NewReaderSize" || got[1] != "cagmres/internal/sparse.ReadMatrixMarket" {
		t.Errorf("second stack %q", got)
	}
	flat, cum, total := p.attribute()
	if total != 5 || flat["la"] != 60 || flat["net_http"] != 40 || cum["sparse_readmm"] != 40 {
		t.Errorf("total %d flat %v cum %v", total, flat, cum)
	}
	if _, err := parseTraces([]byte("File: x\n")); err == nil {
		t.Error("empty listing parsed")
	}
}

func TestFlatBucket(t *testing.T) {
	client := "cagmres/perfbench.(*stack).run.func1"
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"cagmres/internal/la.Dot", "cagmres/internal/core.runCAGMRES"}, "la"},
		{[]string{"cagmres/internal/la.(*Dense).Col"}, "la"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "cagmres/internal/dist.Distribute"}, "malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"cagmres/internal/sparse.ReadMatrixMarket", "runtime.gcAssistAlloc"}, "gc"},
		{[]string{"encoding/json.(*decodeState).object"}, "encoding_json"},
		{[]string{"internal/runtime/syscall.Syscall6"}, "runtime"},
		{[]string{"net/http.(*conn).serve"}, "net_http"},
		{[]string{"main.run"}, "bench"},
		{[]string{"reflect.Value.Field"}, "other"},
		{[]string{"strconv.ParseFloat"}, "strconv"},
		{[]string{"hash/fnv.(*sum64a).Write"}, "fnv"},
		{nil, "other"},
		// The client's own decoding and formatting is the benchmark's,
		// while the router handler wrapper does not make server work so.
		{[]string{"encoding/json.Unmarshal", "cagmres/perfbench.judge", client}, "bench"},
		{[]string{"strconv.FormatFloat", "main.uploadUnique.func1", "main.(*stack).run.func1"}, "bench"},
		{[]string{"encoding/json.Unmarshal", "main.newStack.(*stack).routerHandler.func3"}, "encoding_json"},
	}
	for _, c := range cases {
		if got := flatBucket(c.stack); got != c.want {
			t.Errorf("%v: %q, want %q", c.stack, got, c.want)
		}
	}
}
