package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// relSlack is the rounding slack of the balanced-residual test: the
// oracle recomputes ‖D_r(b−Ax)‖/‖D_r b‖ in its own summation order, which
// agrees with the server's relres to about 6 digits, so a solve the
// server accepted at relres < tol may read up to tol·(1+relSlack) here.
const relSlack = 1e-4

// response is the part of the server's JobJSON (and errorJSON) the
// oracle and the traced run read.
type response struct {
	State          string    `json:"state"`
	Converged      bool      `json:"converged"`
	Canceled       bool      `json:"canceled"`
	RelRes         float64   `json:"relres"`
	ModeledSeconds float64   `json:"modeled_seconds"`
	WaitSeconds    float64   `json:"wait_seconds"`
	ServiceSeconds float64   `json:"service_seconds"`
	X              []float64 `json:"x"`
	Code           string    `json:"code"`
}

// verdict is the oracle's judgement of one response. class is "ok" or
// the failure class it is tallied under.
type verdict struct {
	class   string
	relBal  float64 // ‖D_r(b−Ax)‖/‖D_r b‖, the quantity tol applies to
	relOrig float64 // ‖b−Ax‖/‖b‖, reported, never gated
}

// Failure classes besides "http_<status>_<code>".
const (
	classOK           = "ok"
	classTransport    = "transport"
	classBadBody      = "bad_response_body"
	classCanceled     = "canceled"
	classNotConverged = "not_converged"
	classState        = "oracle_state"
	classLength       = "oracle_length"
	classNonFinite    = "oracle_nonfinite"
	classRelRes       = "oracle_relres"
	classModeled      = "oracle_modeled_repeat"
	classReplay       = "oracle_replay_modeled" // served vs direct core solve
)

// judge applies every per-response check: HTTP 200, state done,
// converged, len(x)=n with finite entries, and the balanced residual
// within tol. The modeled-time repeat check is the checker's.
func judge(sys *system, b []float64, status int, raw []byte) (verdict, *response) {
	var resp response
	if err := json.Unmarshal(raw, &resp); err != nil {
		if status != 200 {
			return verdict{class: fmt.Sprintf("http_%d", status)}, nil
		}
		return verdict{class: classBadBody}, nil
	}
	if status != 200 {
		return verdict{class: fmt.Sprintf("http_%d_%s", status, resp.Code)}, &resp
	}
	switch {
	case resp.Canceled || resp.State == "canceled":
		return verdict{class: classCanceled}, &resp
	case resp.State != "done":
		return verdict{class: classState}, &resp
	case !resp.Converged:
		return verdict{class: classNotConverged}, &resp
	}
	v := residuals(sys, b, resp.X)
	return v, &resp
}

// residuals checks x against A and b and classifies it.
func residuals(sys *system, b, x []float64) verdict {
	a := sys.a
	if len(x) != a.Rows {
		return verdict{class: classLength}
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return verdict{class: classNonFinite}
		}
	}
	var rb, bb, ro, bo float64
	for i := 0; i < a.Rows; i++ {
		ri := b[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			ri -= a.Val[k] * x[a.ColIdx[k]]
		}
		s := sys.rowScale[i]
		rb += (s * ri) * (s * ri)
		bb += (s * b[i]) * (s * b[i])
		ro += ri * ri
		bo += b[i] * b[i]
	}
	v := verdict{class: classOK, relBal: math.Sqrt(rb / bb), relOrig: math.Sqrt(ro / bo)}
	if !(v.relBal <= tol*(1+relSlack)) {
		v.class = classRelRes
	}
	return v
}

// checker is the oracle's shared state across one run: the failure
// tally, the modeled time of every distinct request seen, and the
// extremes of the residual checks.
type checker struct {
	mu       sync.Mutex
	modeled  map[uint64]float64 // request key → modeled seconds
	prior    map[uint64]float64 // from an earlier run with this seed
	failures map[string]int
	relMax   float64
	origMax  float64
	agreeMax float64 // max |rel_bal − relres| / relres
}

func newChecker() *checker {
	return &checker{modeled: map[uint64]float64{}, failures: map[string]int{}}
}

// fail tallies a request that produced no response to judge.
func (c *checker) fail(class string) {
	c.mu.Lock()
	c.failures[class]++
	c.mu.Unlock()
}

// check judges one response to r, whose body hashed to key, and records
// it. It returns the verdict and the decoded response (nil when the body
// did not decode).
func (c *checker) check(r *request, key uint64, status int, raw []byte) (verdict, *response) {
	b := randomRHS(r.rhsSeed, r.sys.a.Rows)
	v, resp := judge(r.sys, b, status, raw)
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.class == classOK {
		// Each distinct request's modeled time must repeat exactly, within
		// this run and against an earlier run of the same seed by this build.
		if m, ok := c.modeled[key]; ok && m != resp.ModeledSeconds {
			v.class = classModeled
		} else if m, ok := c.prior[key]; ok && m != resp.ModeledSeconds {
			v.class = classModeled
		}
		c.modeled[key] = resp.ModeledSeconds
	}
	if v.class != classOK {
		c.failures[v.class]++
		return v, resp
	}
	c.relMax = math.Max(c.relMax, v.relBal)
	c.origMax = math.Max(c.origMax, v.relOrig)
	if resp.RelRes > 0 {
		c.agreeMax = math.Max(c.agreeMax, math.Abs(v.relBal-resp.RelRes)/resp.RelRes)
	}
	return v, resp
}

func (c *checker) failed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.failures {
		n += k
	}
	return n
}

// tally renders the failure classes, sorted.
func (c *checker) tally() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) == 0 {
		return "none"
	}
	names := make([]string, 0, len(c.failures))
	for k := range c.failures {
		names = append(names, k)
	}
	sort.Strings(names)
	out := ""
	for i, k := range names {
		if i > 0 {
			out += " "
		}
		out += k + "=" + strconv.Itoa(c.failures[k])
	}
	return out
}

// ledgerFile holds the modeled seconds of every distinct request a run
// of (workload, seed) by one build saw, so the next run of the same
// seed by the same build can demand the exact same values. A different
// build (say, one that changes the modeled time on purpose) gets its
// own file and is compared only with itself.
func ledgerFile(dir, build, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("modeled-%s-seed%d-%s.json", workload, seed, build))
}

// buildID identifies the running binary: a hash of its file.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// loadPrior reads an earlier run's ledger; a missing file is no error.
func (c *checker) loadPrior(path string) error {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var m map[string]float64
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	c.prior = make(map[uint64]float64, len(m))
	for k, v := range m {
		u, err := strconv.ParseUint(k, 16, 64)
		if err != nil {
			return fmt.Errorf("%s: bad key %q", path, k)
		}
		c.prior[u] = v
	}
	return nil
}

// saveLedger merges this run's modeled times into the ledger file.
func (c *checker) saveLedger(path string) error {
	c.mu.Lock()
	m := make(map[string]float64, len(c.prior)+len(c.modeled))
	for k, v := range c.prior {
		m[strconv.FormatUint(k, 16)] = v
	}
	for k, v := range c.modeled {
		m[strconv.FormatUint(k, 16)] = v
	}
	c.mu.Unlock()
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
