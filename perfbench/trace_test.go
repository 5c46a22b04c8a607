package main

import (
	"math"
	"net/http"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	for _, idx := range []int{0, 1, 987654} {
		r, _ := http.NewRequest(http.MethodPost, "/", nil)
		r.Header.Set("traceparent", traceparent(idx))
		if got := requestID(r); got != idx {
			t.Errorf("requestID(traceparent(%d)) = %d", idx, got)
		}
	}
	r, _ := http.NewRequest(http.MethodPost, "/", nil)
	if got := requestID(r); got != -1 {
		t.Errorf("no header: %d", got)
	}
}

// Self time is a span's duration minus its children's: the router's
// excludes both node hops, the node's excludes the scheduler's wait and
// service.
func TestBreakdownSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "client", Req: 5, Start: 0, End: 10, Wait: 1, Service: 4},
		{ID: 2, Parent: 1, Name: "router", Req: 5, Start: 1, End: 9},
		{ID: 3, Parent: 2, Name: "node.node0", Req: 5, Start: 1.5, End: 2, ReqBytes: 100, RespBytes: 40},
		{ID: 4, Parent: 2, Name: "node.node1", Req: 5, Start: 2.5, End: 8.5, ReqBytes: 300, RespBytes: 60},
	}
	samples, reqB, respB, all := tr.breakdown()
	if len(samples) != 1 {
		t.Fatalf("%d samples", len(samples))
	}
	s := samples[0]
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	if !near(s.clientSelf, 2) || !near(s.routerSelf, 1.5) || !near(s.nodeSelf, 1) {
		t.Errorf("self times client %g router %g node %g; want 2, 1.5, 1", s.clientSelf, s.routerSelf, s.nodeSelf)
	}
	if reqB != 200 || respB != 50 {
		t.Errorf("bytes %g/%g", reqB, respB)
	}
	if len(all) != 6 || all[4].Name != "sched.queue" || all[5].Name != "sched.service" ||
		all[4].Parent != 4 || !near(all[5].Start, 4.5) || !near(all[4].Start, 3.5) {
		t.Errorf("derived sched spans: %+v", all[4:])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	c := tr.begin("client", 3, true)
	r := tr.begin("router", 3, true)
	n := tr.begin("node.node0", 3, false)
	tr.end(n)
	tr.end(r)
	tr.endClient(c, &response{WaitSeconds: 0.5, ServiceSeconds: 0.25})
	sp := tr.spans
	if sp[1].Parent != c || sp[2].Parent != r || sp[0].Parent != 0 {
		t.Errorf("parents: %+v", sp)
	}
	if sp[0].Wait != 0.5 || sp[0].Service != 0.25 {
		t.Errorf("client span did not keep wait/service: %+v", sp[0])
	}
	if len(tr.open) != 0 {
		t.Errorf("open spans left: %v", tr.open)
	}
}
