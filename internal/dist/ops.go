package dist

import (
	"math"

	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// Distributed BLAS-1/2 operations on Vectors columns, with ledger
// accounting matching the paper's implementation: purely local work is a
// device kernel; every reduction is one device-to-host round (local
// partial results travel to the CPU, the CPU combines them) and, when the
// result is needed back on the devices, one host-to-device round.
//
// All operations are submitted through the stream API: each device's
// kernels are ordered on its compute stream, rounds on its transfer
// stream, and the data dependencies between them are explicit events
// (kernel -> reduce, broadcast -> kernel, host result -> broadcast).
// With overlap disabled every submission is a barrier, reproducing the
// synchronous schedule exactly.

// DotCols returns the inner product of columns jx and jy: one local dot
// per device plus a reduce round of one scalar per device.
func (v *Vectors) DotCols(jx, jy int, phase string) float64 {
	ng := len(v.Local)
	partial := make([]float64, ng)
	work := make([]gpu.Work, ng)
	v.Ctx.RunAll(func(d int) {
		x := v.Local[d].Col(jx)
		y := v.Local[d].Col(jy)
		partial[d] = la.Dot(x, y)
		work[d] = gpu.Work{Flops: 2 * float64(len(x)), Bytes: 16 * float64(len(x))}
	})
	k := v.Ctx.Kernel(gpu.Op{Phase: phase}, work)
	bytes := make([]int, ng)
	for d := range bytes {
		bytes[d] = gpu.ScalarBytes
	}
	v.Ctx.Reduce(gpu.Op{Phase: phase, After: k}, bytes)
	var s float64
	for _, p := range partial {
		s += p
	}
	return s
}

// NormCol returns the 2-norm of column j (one reduce round).
func (v *Vectors) NormCol(j int, phase string) float64 {
	return math.Sqrt(v.DotCols(j, j, phase))
}

// AxpyCol computes column jy += alpha * column jx. Purely local.
func (v *Vectors) AxpyCol(alpha float64, jx, jy int, phase string) {
	ng := len(v.Local)
	work := make([]gpu.Work, ng)
	v.Ctx.RunAll(func(d int) {
		x := v.Local[d].Col(jx)
		la.Axpy(alpha, x, v.Local[d].Col(jy))
		work[d] = gpu.Work{Flops: 2 * float64(len(x)), Bytes: 24 * float64(len(x))}
	})
	v.Ctx.Kernel(gpu.Op{Phase: phase}, work)
}

// ScaleCol multiplies column j by alpha. The scalar is broadcast to the
// devices first (one host-to-device round), matching the paper's
// normalization step v := v / r_kk.
func (v *Vectors) ScaleCol(alpha float64, j int, phase string) {
	ng := len(v.Local)
	bytes := make([]int, ng)
	for d := range bytes {
		bytes[d] = gpu.ScalarBytes
	}
	// The scalar is host-side state (e.g. a norm the host just combined);
	// the broadcast starts once the host holds it, the kernel once the
	// broadcast lands.
	bc := v.Ctx.Broadcast(gpu.Op{Phase: phase, After: v.Ctx.HostFence()}, bytes)
	work := make([]gpu.Work, ng)
	v.Ctx.RunAll(func(d int) {
		col := v.Local[d].Col(j)
		la.Scal(alpha, col)
		work[d] = gpu.Work{Flops: float64(len(col)), Bytes: 16 * float64(len(col))}
	})
	v.Ctx.Kernel(gpu.Op{Phase: phase, After: bc}, work)
}

// CopyCol copies column jSrc into jDst. Purely local.
func (v *Vectors) CopyCol(jSrc, jDst int, phase string) {
	ng := len(v.Local)
	work := make([]gpu.Work, ng)
	v.Ctx.RunAll(func(d int) {
		src := v.Local[d].Col(jSrc)
		copy(v.Local[d].Col(jDst), src)
		work[d] = gpu.Work{Bytes: 16 * float64(len(src))}
	})
	v.Ctx.Kernel(gpu.Op{Phase: phase}, work)
}

// UpdateWithBasis computes column jx of v += basis[:, j0:j0+k] * y for a
// host-side coefficient vector y of length k — the solution update
// x := x + V_m y at the end of a restart cycle. The coefficients are
// broadcast once, then each device runs a local GEMV. basis must share
// v's layout.
func (v *Vectors) UpdateWithBasis(jx int, basis *Vectors, j0 int, y []float64, phase string) {
	ng := len(v.Local)
	k := len(y)
	bytes := make([]int, ng)
	for d := range bytes {
		bytes[d] = k * gpu.ScalarBytes
	}
	// y is computed on the host (the least-squares solve), so the
	// broadcast depends on the host stream, and the GEMV on the broadcast.
	bc := v.Ctx.Broadcast(gpu.Op{Phase: phase, After: v.Ctx.HostFence()}, bytes)
	work := make([]gpu.Work, ng)
	v.Ctx.RunAll(func(d int) {
		panel := basis.Local[d].ColView(j0, j0+k)
		la.Gemv(1, panel, y, 1, v.Local[d].Col(jx))
		rows := float64(v.Local[d].Rows)
		work[d] = gpu.Work{Flops: 2 * rows * float64(k), Bytes: 8 * rows * float64(k+2)}
	})
	v.Ctx.Kernel(gpu.Op{Phase: phase, After: bc}, work)
}
