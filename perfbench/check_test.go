package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cagmres/internal/cluster"
	"cagmres/internal/matgen"
	"cagmres/internal/server"
)

func serverSpec(name string, scale float64) server.MatrixSpec {
	return server.MatrixSpec{Name: name, Scale: scale}
}

// solveOn posts body to a fresh local node and returns the status and
// response bytes.
func solveOn(t *testing.T, n *cluster.LocalNode, body []byte) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
	n.Server.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func newTestNode(t *testing.T) *cluster.LocalNode {
	t.Helper()
	n := cluster.NewLocalNode(cluster.LocalNodeConfig{Name: "test"})
	t.Cleanup(func() { _ = n.Drain(context.Background()) })
	return n
}

func mustSystem(t *testing.T, name string, scale float64) *system {
	t.Helper()
	sys, err := buildSystem(genSpec{name, scale})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// The server's relres and tol test apply to the row-balanced system, so
// a converged solve can miss tol in original coordinates. The oracle
// must accept these; an original-coordinate check would reject them.
func TestOracleAcceptsBalancedResidual(t *testing.T) {
	n := newTestNode(t)
	for _, c := range []struct {
		name  string
		scale float64
	}{
		{"dielFilterV2real", 0.001},
		{"G3_circuit", 0.01},
	} {
		sys := mustSystem(t, c.name, c.scale)
		body := specBodyRHS(c.name, c.scale, `"ones"`)
		status, raw := solveOn(t, n, body)
		b := make([]float64, sys.a.Rows)
		for i := range b {
			b[i] = 1
		}
		v, resp := judge(sys, b, status, raw)
		if v.class != classOK {
			t.Fatalf("%s: oracle rejected a converged solve: %s (relBal %g)", c.name, v.class, v.relBal)
		}
		if v.relOrig <= tol {
			t.Errorf("%s: original-coordinate residual %g within tol; want the case where it is not", c.name, v.relOrig)
		}
		if d := math.Abs(v.relBal-resp.RelRes) / resp.RelRes; d > 1e-6 {
			t.Errorf("%s: oracle relres %g vs server %g (rel diff %g)", c.name, v.relBal, resp.RelRes, d)
		}
		t.Logf("%s: balanced %.4g, original %.4g, server %.4g", c.name, v.relBal, v.relOrig, resp.RelRes)
	}
}

func specBodyRHS(name string, scale float64, rhs string) []byte {
	body := specBody(serverSpec(name, scale), solveConfig{"ca", ""}, 0)
	return bytes.Replace(body, []byte(`"rhs":"random"`), []byte(`"rhs":`+rhs), 1)
}

func TestOracleRejects(t *testing.T) {
	n := newTestNode(t)
	sys := mustSystem(t, "laplace3d", 0.0003)
	const seed = 42
	body := specBody(serverSpec("laplace3d", 0.0003), solveConfig{"ca", ""}, seed)
	status, raw := solveOn(t, n, body)
	b := randomRHS(seed, sys.a.Rows)
	if v, _ := judge(sys, b, status, raw); v.class != classOK {
		t.Fatalf("baseline solve rejected: %s", v.class)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	x := doc["x"].([]any)
	mutate := func(f func(d map[string]any)) []byte {
		d := map[string]any{}
		for k, v := range doc {
			d[k] = v
		}
		d["x"] = append([]any(nil), x...)
		f(d)
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cases := []struct {
		name   string
		status int
		raw    []byte
		want   string
	}{
		{"perturbed x", 200, mutate(func(d map[string]any) { d["x"].([]any)[0] = x[0].(float64) + 1 }), classRelRes},
		{"short x", 200, mutate(func(d map[string]any) { d["x"] = d["x"].([]any)[1:] }), classLength},
		{"not converged", 200, mutate(func(d map[string]any) { d["converged"] = false }), classNotConverged},
		{"canceled", 200, mutate(func(d map[string]any) { d["canceled"] = true }), classCanceled},
		{"failed state", 200, mutate(func(d map[string]any) { d["state"] = "failed" }), classState},
		{"queue full", 429, []byte(`{"code":"queue_full","error":"full"}`), "http_429_queue_full"},
		{"garbage", 200, []byte(`not json`), classBadBody},
	}
	for _, c := range cases {
		if v, _ := judge(sys, b, c.status, c.raw); v.class != c.want {
			t.Errorf("%s: class %q, want %q", c.name, v.class, c.want)
		}
	}
	// JSON cannot carry NaN, so check the decoded-vector path directly.
	var resp response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	resp.X[3] = math.NaN()
	if v := residuals(sys, b, resp.X); v.class != classNonFinite {
		t.Errorf("NaN entry: class %q, want %q", v.class, classNonFinite)
	}
}

func TestCheckerModeledRepeat(t *testing.T) {
	n := newTestNode(t)
	sys := mustSystem(t, "laplace3d", 0.0003)
	r := &request{sys: sys, rhsSeed: 7, body: specBody(serverSpec("laplace3d", 0.0003), solveConfig{"ca", ""}, 7)}
	status, raw := solveOn(t, n, r.body)
	chk := newChecker()
	if v, _ := chk.check(r, r.key(), status, raw); v.class != classOK {
		t.Fatalf("first solve: %s", v.class)
	}
	status, raw = solveOn(t, newTestNode(t), r.body)
	if v, _ := chk.check(r, r.key(), status, raw); v.class != classOK {
		t.Fatalf("repeat on a fresh node: %s (modeled time must repeat exactly)", v.class)
	}
	var doc map[string]any
	_ = json.Unmarshal(raw, &doc)
	doc["modeled_seconds"] = doc["modeled_seconds"].(float64) * (1 + 1e-15)
	raw, _ = json.Marshal(doc)
	if v, _ := chk.check(r, r.key(), status, raw); v.class != classModeled {
		t.Errorf("changed modeled time: class %q, want %q", v.class, classModeled)
	}
	if got := chk.tally(); !strings.Contains(got, classModeled+"=1") {
		t.Errorf("tally %q", got)
	}
}

// A solve sent with "rhs":"random" and seed k returns bit-identical x to
// the same solve sent with the RHS array the client rebuilds.
func TestRandomRHSMatchesArray(t *testing.T) {
	n := newTestNode(t)
	const seed = 12345
	m, err := matgen.ByName("G3_circuit", 0.0004)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := json.Marshal(randomRHS(seed, m.A.Rows))
	if err != nil {
		t.Fatal(err)
	}
	viaSeed := specBody(serverSpec("G3_circuit", 0.0004), solveConfig{"ca", ""}, seed)
	viaArray := bytes.Replace(viaSeed, []byte(`"rhs":"random"`), append([]byte(`"rhs":`), arr...), 1)
	var xs [2][]float64
	for i, body := range [][]byte{viaSeed, viaArray} {
		status, raw := solveOn(t, n, body)
		var resp response
		if err := json.Unmarshal(raw, &resp); err != nil || status != 200 {
			t.Fatalf("status %d: %s", status, raw)
		}
		xs[i] = resp.X
	}
	if len(xs[0]) != m.A.Rows || len(xs[0]) != len(xs[1]) {
		t.Fatalf("lengths %d, %d", len(xs[0]), len(xs[1]))
	}
	for i := range xs[0] {
		if math.Float64bits(xs[0][i]) != math.Float64bits(xs[1][i]) {
			t.Fatalf("x[%d]: %v vs %v", i, xs[0][i], xs[1][i])
		}
	}
}

// The cross-run ledger binds only runs of one build: a ledger written by
// another build, whose modeled times differ, must not fail this run,
// while a conflicting ledger of this build must.
func TestLedgerKeyedByBuild(t *testing.T) {
	n := newTestNode(t)
	sys := mustSystem(t, "laplace3d", 0.0003)
	r := &request{sys: sys, rhsSeed: 9, body: specBody(serverSpec("laplace3d", 0.0003), solveConfig{"ca", ""}, 9)}
	status, raw := solveOn(t, n, r.body)
	dir := t.TempDir()
	stale := newChecker()
	stale.modeled[r.key()] = 12.5 // what some other build modeled
	if err := stale.saveLedger(ledgerFile(dir, "oldbuild", "repeat-small", 3)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		build, want string
	}{{"newbuild", classOK}, {"oldbuild", classModeled}} {
		chk := newChecker()
		if err := chk.loadPrior(ledgerFile(dir, c.build, "repeat-small", 3)); err != nil {
			t.Fatal(err)
		}
		if v, _ := chk.check(r, r.key(), status, raw); v.class != c.want {
			t.Errorf("ledger of build %s: class %q, want %q", c.build, v.class, c.want)
		}
	}
	if id, err := buildID(); err != nil || id == "" {
		t.Errorf("buildID() = %q, %v", id, err)
	}
}
