package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"cagmres/internal/matgen"
	"cagmres/internal/server"
	"cagmres/internal/sparse"
)

// tol is the relative-residual target of every generated solve.
const tol = 1e-4

// system is a matrix the benchmark generated itself, with the row scales
// the oracle needs: D_r = 1/RowNorms(A), 1 for zero rows.
type system struct {
	a        *sparse.CSR
	rowScale []float64
}

func newSystem(a *sparse.CSR) *system {
	rs := sparse.RowNorms(a)
	for i, v := range rs {
		if v == 0 {
			rs[i] = 1
		} else {
			rs[i] = 1 / v
		}
	}
	return &system{a: a, rowScale: rs}
}

// request is one generated solve: the exact bytes sent, and what the
// oracle and the core replay need to rebuild it.
type request struct {
	idx       int
	kind      string // matrix@scale/solver/precision
	body      []byte
	sys       *system
	rhsSeed   int64 // the server builds b from "rhs":"random" and this seed
	solver    string
	precision string
}

// key identifies a distinct request: equal bodies are equal solves.
func (r *request) key() uint64 {
	h := fnv.New64a()
	_, _ = h.Write(r.body)
	return h.Sum64()
}

// workload is a closed-loop request stream. gen is a pure function of
// the workload seed and the stream index, so concurrent clients pulling
// indices from a shared counter send the same stream on every run.
type workload struct {
	name    string
	clients int
	// Stream indices [0, warm) are sent during set-up; the measured
	// window starts at warm. Indices [warm, warm+prefix) define
	// modeled_ms_per_solve and the traced run's core replay, so both
	// repeat exactly for a given seed; the prefix is long enough that
	// their spread across seeds stays within a few percent.
	warm   int
	prefix int
	gen    func(i int) *request
}

var workloadNames = []string{"paper-solve", "repeat-small", "upload-unique"}

func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "paper-solve":
		return paperSolve(seed)
	case "repeat-small":
		return repeatSmall(seed)
	case "upload-unique":
		return uploadUnique(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mix is the splitmix64 finalizer; draw hashes a seed and a path of
// salts into one uniform 64-bit value.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func draw(seed int64, path ...uint64) uint64 {
	h := mix(uint64(seed))
	for _, p := range path {
		h = mix(h ^ p)
	}
	return h
}

// unit maps a draw to [0, 1).
func unit(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// rhsSeed derives a positive RHS seed (the server maps 0 to 1).
func rhsSeed(seed int64, path ...uint64) int64 {
	return int64(draw(seed, path...)>>2) + 1
}

// randomRHS rebuilds the server's "rhs":"random" vector for a seed.
func randomRHS(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// Salts keep the draws of different purposes independent.
const (
	saltPerm = iota + 1
	saltRHS
	saltPick
	saltDiag
)

type solveConfig struct{ solver, precision string }

func (c solveConfig) label() string {
	p := c.precision
	if p == "" {
		p = "fp64"
	}
	return c.solver + "/" + p
}

func specBody(spec server.MatrixSpec, c solveConfig, seed int64) []byte {
	body, err := json.Marshal(server.SolveRequest{
		Matrix:    spec,
		Solver:    c.solver,
		Precision: c.precision,
		Tol:       tol,
		RHS:       json.RawMessage(`"random"`),
		Seed:      seed,
		Wait:      true,
		IncludeX:  true,
	})
	if err != nil {
		panic(err) // a fixed struct of plain fields always marshals
	}
	return body
}

type genSpec struct {
	name  string
	scale float64
}

func (g genSpec) label() string { return g.name + "@" + strconv.FormatFloat(g.scale, 'g', -1, 64) }

func buildSystem(g genSpec) (*system, error) {
	m, err := matgen.ByName(g.name, g.scale)
	if err != nil {
		return nil, err
	}
	return newSystem(m.A), nil
}

// paperSolve cycles over the paper's four matrix analogues × {GMRES,
// CA-GMRES, CA-GMRES mixed}, in a fresh seeded order every cycle, each
// request with a fresh seeded RHS. Iteration counts depend on the RHS, so
// a run averages over many of them.
func paperSolve(seed int64) (*workload, error) {
	mats := []genSpec{
		{"cant", 0.01}, {"G3_circuit", 0.01}, {"dielFilterV2real", 0.001}, {"nlpkkt120", 0.0003},
	}
	configs := []solveConfig{{"gmres", ""}, {"ca", ""}, {"ca", "mixed"}}
	type kind struct {
		mat genSpec
		sys *system
		cfg solveConfig
	}
	var kinds []kind
	for _, g := range mats {
		sys, err := buildSystem(g)
		if err != nil {
			return nil, err
		}
		for _, c := range configs {
			kinds = append(kinds, kind{g, sys, c})
		}
	}
	nk := len(kinds)
	return &workload{
		name: "paper-solve", clients: 1, warm: nk, prefix: 10 * nk,
		gen: func(i int) *request {
			cycle, pos := i/nk, i%nk
			// Fisher–Yates over the kinds, drawn from (seed, cycle).
			perm := make([]int, nk)
			for j := range perm {
				perm[j] = j
			}
			for j := nk - 1; j > 0; j-- {
				r := int(draw(seed, saltPerm, uint64(cycle), uint64(j)) % uint64(j+1))
				perm[j], perm[r] = perm[r], perm[j]
			}
			k := kinds[perm[pos]]
			rs := rhsSeed(seed, saltRHS, uint64(i))
			return &request{
				idx: i, kind: k.mat.label() + "/" + k.cfg.label(), sys: k.sys, rhsSeed: rs,
				body:   specBody(server.MatrixSpec{Name: k.mat.name, Scale: k.mat.scale}, k.cfg, rs),
				solver: k.cfg.solver, precision: k.cfg.precision,
			}
		},
	}, nil
}

// repeatSmall draws small generator-spec systems with Zipf popularity
// (fixed rank order, seeded draws) and a fresh seeded RHS per request:
// the server's matrix cache always hits, so per-request preparation,
// allocation and scheduling dominate.
func repeatSmall(seed int64) (*workload, error) {
	var specs []genSpec
	for _, scale := range []float64{0.0003, 0.0004, 0.0005, 0.0006} {
		specs = append(specs, genSpec{"laplace3d", scale}, genSpec{"G3_circuit", scale})
	}
	systems := make([]*system, len(specs))
	for i, g := range specs {
		sys, err := buildSystem(g)
		if err != nil {
			return nil, err
		}
		systems[i] = sys
	}
	// Zipf(s=1.1) cumulative weights over the ranks.
	cdf := make([]float64, len(specs))
	var total float64
	for r := range specs {
		total += 1 / math.Pow(float64(r+1), 1.1)
		cdf[r] = total
	}
	c := solveConfig{"ca", ""}
	return &workload{
		name: "repeat-small", clients: 2, warm: 64, prefix: 1024,
		gen: func(i int) *request {
			u := unit(draw(seed, saltPick, uint64(i))) * total
			r := 0
			for r < len(cdf)-1 && u >= cdf[r] {
				r++
			}
			g := specs[r]
			k := rhsSeed(seed, saltRHS, uint64(i))
			return &request{
				idx: i, kind: g.label() + "/" + c.label(), sys: systems[r], rhsSeed: k,
				body:   specBody(server.MatrixSpec{Name: g.name, Scale: g.scale}, c, k),
				solver: c.solver,
			}
		},
	}, nil
}

// uploadUnique sends a distinct inline MatrixMarket body per request: a
// seeded ±5% diagonal perturbation of G3_circuit@0.0003. Every request
// misses the server's matrix cache and inserts a new entry.
func uploadUnique(seed int64) (*workload, error) {
	base := genSpec{"G3_circuit", 0.0003}
	m, err := matgen.ByName(base.name, base.scale)
	if err != nil {
		return nil, err
	}
	// Canonicalize through FromCoords, exactly as the server's parser
	// assembles the upload, so the oracle checks the matrix solved.
	a := canonical(m.A)
	diag := make([]int, a.Rows) // position of a_ii in Val, -1 if absent
	// The static part of the JSON body: the header and every
	// off-diagonal entry, already escaped for a JSON string.
	pre := []byte(`{"matrix":{"matrixmarket":"%%MatrixMarket matrix coordinate real general\n`)
	pre = fmt.Appendf(pre, `%d %d %d\n`, a.Rows, a.Cols, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		diag[i] = -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j == i {
				diag[i] = k
				continue
			}
			pre = fmt.Appendf(pre, `%d %d %s\n`, i+1, j+1, strconv.FormatFloat(a.Val[k], 'g', -1, 64))
		}
	}
	label := base.label() + "+diag/ca/fp64"
	return &workload{
		name: "upload-unique", clients: 2, warm: 32, prefix: 256,
		gen: func(i int) *request {
			val := append([]float64(nil), a.Val...)
			body := append(make([]byte, 0, len(pre)+64*a.Rows), pre...)
			for r, k := range diag {
				if k < 0 {
					continue
				}
				val[k] *= 1 + 0.1*(unit(draw(seed, saltDiag, uint64(i), uint64(r)))-0.5)
				body = fmt.Appendf(body, `%d %d %s\n`, r+1, r+1, strconv.FormatFloat(val[k], 'g', -1, 64))
			}
			k := rhsSeed(seed, saltRHS, uint64(i))
			body = fmt.Appendf(body, `"},"solver":"ca","tol":%g,"rhs":"random","seed":%d,"wait":true,"include_x":true}`, tol, k)
			pa := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: val}
			return &request{
				idx: i, kind: label, body: body, sys: newSystem(pa),
				rhsSeed: k, solver: "ca",
			}
		},
	}, nil
}

// canonical reassembles a through sparse.FromCoords (rows in order,
// columns sorted), the layout ReadMatrixMarket produces.
func canonical(a *sparse.CSR) *sparse.CSR {
	entries := make([]sparse.Coord, 0, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			entries = append(entries, sparse.Coord{Row: i, Col: a.ColIdx[k], Val: a.Val[k]})
		}
	}
	return sparse.FromCoords(a.Rows, a.Cols, entries)
}
