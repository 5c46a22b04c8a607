package ortho

import (
	"math"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// CGSUnfused is classical Gram-Schmidt exactly as the paper's Figure 9
// pseudocode writes it: per column, one reduce+broadcast pair for the
// projection coefficients and a second pair for the post-update norm —
// 4(s+1) transfers per window. The default CGS strategy implements the
// fused variant of the paper's footnote 5 (norm reduced together with
// the projections, post-update norm via the Pythagorean identity), which
// halves that to 2(s+1); this type exists so the fusion's worth can be
// measured (see bench.AblationFusedCGS) and its stability compared.
type CGSUnfused struct{}

// Name implements TSQR.
func (CGSUnfused) Name() string { return "CGS-unfused" }

// Factor implements TSQR.
func (CGSUnfused) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	c := cols(w)
	ng := len(w)
	r := la.NewDense(c, c)
	projPart := make([]*la.Dense, ng)
	normPart := make([]float64, ng)
	for k := 0; k < c; k++ {
		if k > 0 {
			// r_{1:k-1,k} := V' v_k (reduce + broadcast).
			deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
				vk := w[d].Col(k)
				buf := la.NewDense(k, 1)
				prev := w[d].ColView(0, k)
				la.ParallelGemvT(prev, vk, buf.Col(0))
				projPart[d] = buf
				rows := float64(len(vk))
				return gpu.Work{Flops: 2 * rows * float64(k), Bytes: 8 * rows * float64(k+1)}
			})
			ctx.Reduce(gpu.Op{Phase: phase, Sync: true}, scalarBytesAll(ng, k*gpu.ScalarBytes))
			proj := make([]float64, k)
			for _, p := range projPart {
				la.Axpy(1, p.Col(0), proj)
			}
			for l := 0; l < k; l++ {
				r.Set(l, k, proj[l])
			}
			ctx.Broadcast(gpu.Op{Phase: phase, Sync: true}, scalarBytesAll(ng, k*gpu.ScalarBytes))
			deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
				vk := w[d].Col(k)
				prev := w[d].ColView(0, k)
				la.Gemv(-1, prev, proj, 1, vk)
				rows := float64(len(vk))
				return gpu.Work{Flops: 2 * rows * float64(k), Bytes: 8 * rows * float64(k+2)}
			})
		}
		// r_kk := ||v_k|| recomputed honestly (reduce + broadcast).
		deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
			vk := w[d].Col(k)
			normPart[d] = la.Dot(vk, vk)
			return gpu.Work{Flops: 2 * float64(len(vk)), Bytes: 8 * float64(len(vk))}
		})
		ctx.Reduce(gpu.Op{Phase: phase, Sync: true}, scalarBytesAll(ng, gpu.ScalarBytes))
		ssq := 0.0
		for _, p := range normPart {
			ssq += p
		}
		rkk := math.Sqrt(ssq)
		r.Set(k, k, rkk)
		if k > 0 && rkk <= 1e-14*la.Nrm2(r.Col(k)[:k]) || rkk == 0 {
			return nil, ErrRankDeficient
		}
		ctx.Broadcast(gpu.Op{Phase: phase, Sync: true}, scalarBytesAll(ng, gpu.ScalarBytes))
		deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
			vk := w[d].Col(k)
			la.Scal(1/rkk, vk)
			return gpu.Work{Flops: float64(len(vk)), Bytes: 16 * float64(len(vk))}
		})
	}
	return r, nil
}
