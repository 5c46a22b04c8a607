package ortho

import (
	"math"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// MGS is modified Gram-Schmidt: each column is orthogonalized against the
// previous columns one dot product at a time. Numerically the most stable
// Gram-Schmidt variant (error O(eps*kappa)) but each dot product is a
// global reduction, so a window of s+1 columns costs (s+1)(s+2) GPU-CPU
// transfers (Figure 10) — the latency-bound worst case on devices.
type MGS struct{}

// Name implements TSQR.
func (MGS) Name() string { return "MGS" }

// Factor implements TSQR.
func (MGS) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	c := cols(w)
	ng := len(w)
	r := la.NewDense(c, c)
	partial := make([]float64, ng)
	for k := 0; k < c; k++ {
		projSq := 0.0 // accumulated ||r_{1:k-1,k}||^2, for breakdown detection
		for l := 0; l < k; l++ {
			// r_lk = v_l' v_k: local dots, one reduce round.
			kd := deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
				vl, vk := w[d].Col(l), w[d].Col(k)
				partial[d] = la.Dot(vl, vk)
				return gpu.Work{Flops: 2 * float64(len(vl)), Bytes: 16 * float64(len(vl))}
			})
			ctx.Reduce(gpu.Op{Phase: phase, After: kd}, scalarBytesAll(ng, gpu.ScalarBytes))
			rlk := 0.0
			for _, p := range partial {
				rlk += p
			}
			r.Set(l, k, rlk)
			projSq += rlk * rlk
			// broadcast r_lk, local axpy v_k -= r_lk v_l
			bc := ctx.Broadcast(gpu.Op{Phase: phase}, scalarBytesAll(ng, gpu.ScalarBytes))
			deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
				vl, vk := w[d].Col(l), w[d].Col(k)
				la.Axpy(-rlk, vl, vk)
				return gpu.Work{Flops: 2 * float64(len(vl)), Bytes: 24 * float64(len(vl))}
			}, bc)
		}
		// r_kk = ||v_k||: reduce, then broadcast for the scale.
		kd := deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
			vk := w[d].Col(k)
			partial[d] = la.Dot(vk, vk)
			return gpu.Work{Flops: 2 * float64(len(vk)), Bytes: 8 * float64(len(vk))}
		})
		ctx.Reduce(gpu.Op{Phase: phase, After: kd}, scalarBytesAll(ng, gpu.ScalarBytes))
		ssq := 0.0
		for _, p := range partial {
			ssq += p
		}
		rkk := math.Sqrt(ssq)
		r.Set(k, k, rkk)
		// Breakdown check relative to the original column norm
		// (Pythagoras: ||v_orig||^2 = ||r_{1:k-1,k}||^2 + r_kk^2).
		if rkk <= 1e-14*math.Sqrt(projSq+ssq) {
			return nil, ErrRankDeficient
		}
		bc := ctx.Broadcast(gpu.Op{Phase: phase}, scalarBytesAll(ng, gpu.ScalarBytes))
		deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
			vk := w[d].Col(k)
			la.Scal(1/rkk, vk)
			return gpu.Work{Flops: float64(len(vk)), Bytes: 16 * float64(len(vk))}
		}, bc)
	}
	return r, nil
}

// CGS is classical Gram-Schmidt with the fused norm: the projection
// coefficients r = V' v and the squared norm of v are reduced in the same
// round, and the post-update norm comes from the Pythagorean identity
// ||v - Vr||^2 = ||v||^2 - ||r||^2 (Stathopoulos & Wu; the paper's fused
// CGS footnote). That brings the count to 2 transfers per column,
// 2(s+1) per window — Figure 10's entry. When cancellation makes the
// identity untrustworthy the norm is recomputed with one extra round.
//
// The BLAS-2 projection gives CGS much better device efficiency than MGS,
// at the price of error O(eps*kappa^s): inside CA-GMRES it frequently
// needs reorthogonalization (the paper's "2xCGS" rows).
type CGS struct{}

// Name implements TSQR.
func (CGS) Name() string { return "CGS" }

// Factor implements TSQR.
func (CGS) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	c := cols(w)
	ng := len(w)
	r := la.NewDense(c, c)
	partial := make([]*la.Dense, ng) // (k+1)-vector per device: [V'v; ||v||^2]
	for k := 0; k < c; k++ {
		// Local fused projection+norm, one reduce round.
		kd := deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
			vk := w[d].Col(k)
			buf := la.NewDense(k+1, 1)
			if k > 0 {
				prev := w[d].ColView(0, k)
				la.ParallelGemvT(prev, vk, buf.Col(0)[:k])
			}
			buf.Set(k, 0, la.Dot(vk, vk))
			partial[d] = buf
			rows := float64(len(vk))
			return gpu.Work{Flops: 2 * rows * float64(k+1), Bytes: 8 * rows * float64(k+2)}
		})
		ctx.Reduce(gpu.Op{Phase: phase, After: kd}, scalarBytesAll(ng, (k+1)*gpu.ScalarBytes))
		sum := make([]float64, k+1)
		for _, p := range partial {
			la.Axpy(1, p.Col(0), sum)
		}
		proj := sum[:k]
		vnorm2 := sum[k]
		for l := 0; l < k; l++ {
			r.Set(l, k, proj[l])
		}
		// Pythagorean post-update norm with a cancellation guard.
		rnorm2 := la.Dot(proj, proj)
		newNorm2 := vnorm2 - rnorm2
		needRecompute := newNorm2 <= 0.5*vnorm2*1e-8 || newNorm2 < 0

		// Broadcast coefficients, local update. The host-side Pythagorean
		// bookkeeping above overlaps with the device-side update.
		bc := ctx.Broadcast(gpu.Op{Phase: phase}, scalarBytesAll(ng, (k+1)*gpu.ScalarBytes))
		deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
			vk := w[d].Col(k)
			if k > 0 {
				prev := w[d].ColView(0, k)
				la.Gemv(-1, prev, proj, 1, vk)
			}
			rows := float64(len(vk))
			return gpu.Work{Flops: 2 * rows * float64(k), Bytes: 8 * rows * float64(k+2)}
		}, bc)

		var rkk float64
		if needRecompute {
			// Cancellation: one extra reduce for the true norm.
			part := make([]float64, ng)
			kd2 := deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
				vk := w[d].Col(k)
				part[d] = la.Dot(vk, vk)
				return gpu.Work{Flops: 2 * float64(len(vk)), Bytes: 8 * float64(len(vk))}
			})
			ctx.Reduce(gpu.Op{Phase: phase, After: kd2}, scalarBytesAll(ng, gpu.ScalarBytes))
			ssq := 0.0
			for _, p := range part {
				ssq += p
			}
			rkk = math.Sqrt(ssq)
			// The scale still rides on the already-counted broadcast of
			// the next column in spirit; charge one explicit round to
			// stay honest.
			bc = ctx.Broadcast(gpu.Op{Phase: phase}, scalarBytesAll(ng, gpu.ScalarBytes))
		} else {
			rkk = math.Sqrt(newNorm2)
			// rkk was derived host-side from already-communicated data
			// and travels with the coefficient broadcast above; no extra
			// round.
		}
		r.Set(k, k, rkk)
		if rkk <= 1e-14*math.Sqrt(vnorm2) || math.IsNaN(rkk) {
			return nil, ErrRankDeficient
		}
		deviceWorkOn(ctx, phase, ng, func(d int) gpu.Work {
			vk := w[d].Col(k)
			la.Scal(1/rkk, vk)
			return gpu.Work{Flops: float64(len(vk)), Bytes: 16 * float64(len(vk))}
		}, bc)
	}
	return r, nil
}
