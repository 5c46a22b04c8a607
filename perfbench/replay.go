package main

import (
	"fmt"

	"cagmres/internal/core"
	"cagmres/internal/gpu"
)

// replay is the core and gpu layers measured from outside: each request
// of a fixed stream range re-solved by direct calls on a context shaped
// like a pooled one (3 simulated M2090 GPUs).
type replay struct {
	prepMS, solveMS []float64
	n               int
	iters           int
	restarts        int
	refinements     int
	phaseSeconds    map[string]float64
	rounds          int
	messages        int
	bytes           int
	flops           float64
	kernels         int
	modeled         map[int]float64 // stream index → modeled seconds
}

// replayPhases are the solver ledger phases reported per solve.
var replayPhases = []string{
	core.PhaseSpMV, core.PhaseMPK, core.PhaseOrth, core.PhaseBOrth,
	core.PhaseTSQR, core.PhaseLSQ, core.PhaseVec,
}

// replayCore re-solves stream indices [from, from+count) with
// core.NewProblem and core.GMRES/CAGMRES, the calls the scheduler makes,
// recording core.prepare and core.solve spans.
func replayCore(w *workload, from, count int, tr *tracer) (*replay, error) {
	out := &replay{phaseSeconds: map[string]float64{}, modeled: map[int]float64{}}
	for i := from; i < from+count; i++ {
		r := w.gen(i)
		b := randomRHS(r.rhsSeed, r.sys.a.Rows)
		prec, err := core.NormalizePrecision(r.precision)
		if err != nil {
			return nil, err
		}
		ctx := gpu.NewContext(3, gpu.M2090())
		t0 := tr.now()
		p, err := core.NewProblem(ctx, r.sys.a, b, core.KWay, true)
		if err != nil {
			return nil, fmt.Errorf("replay %d: %w", i, err)
		}
		t1 := tr.now()
		opts := core.Options{Tol: tol, Precision: prec}
		var res *core.Result
		if r.solver == "gmres" {
			res, err = core.GMRES(p, opts)
		} else {
			res, err = core.CAGMRES(p, opts)
		}
		t2 := tr.now()
		if err != nil {
			return nil, fmt.Errorf("replay %d: %w", i, err)
		}
		tr.add(span{Name: "core.prepare", Req: i, Start: t0, End: t1})
		tr.add(span{Name: "core.solve", Req: i, Start: t1, End: t2})
		out.prepMS = append(out.prepMS, (t1-t0)*1e3)
		out.solveMS = append(out.solveMS, (t2-t1)*1e3)
		out.n++
		out.iters += res.Iters
		out.restarts += res.Restarts
		if res.Precision != nil {
			out.refinements += res.Precision.Refinements
		}
		st := res.Stats
		out.modeled[i] = st.TotalTime()
		for _, name := range st.Phases() {
			ph := st.Phase(name)
			out.phaseSeconds[name] += ph.CommTime + ph.DeviceTime + ph.HostTime
			out.rounds += ph.Rounds
			out.messages += ph.Messages
			out.bytes += ph.BytesD2H + ph.BytesH2D + ph.BytesPeer
			out.flops += ph.DeviceFlops + ph.HostFlops
			out.kernels += ph.Kernels
		}
	}
	return out, nil
}
