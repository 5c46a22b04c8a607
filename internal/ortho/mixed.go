package ortho

import (
	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// MixedCholQR implements the mixed-precision orthogonalization scheme
// the paper's conclusion points to (its reference [23], Yamazaki, Tomov,
// Dong, Dongarra): the Gram matrix is accumulated and shipped in single
// precision — halving both the BLAS-3 kernel's memory traffic and the
// device-to-host volume — while the Cholesky factorization and the
// triangular solve stay in double precision. One optional
// double-precision reorthogonalization pass (Refine) restores full
// accuracy; without it the orthogonality error floor is O(eps_32 kappa^2)
// instead of O(eps_64 kappa^2).
type MixedCholQR struct {
	// Refine adds a second, double-precision CholQR pass (the scheme's
	// "CholQR2" configuration). The R factors are combined.
	Refine bool
}

// Name implements TSQR.
func (m MixedCholQR) Name() string {
	if m.Refine {
		return "MixedCholQR2"
	}
	return "MixedCholQR"
}

// Factor implements TSQR.
func (m MixedCholQR) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	r1, err := CholQR{GramElem: gpu.Elem32}.Factor(ctx, w, phase)
	if err != nil {
		return nil, err
	}
	if !m.Refine {
		return r1, nil
	}
	r2, err := (CholQR{}).Factor(ctx, w, phase)
	if err != nil {
		return nil, err
	}
	c := r1.Rows
	out := la.NewDense(c, c)
	la.GemmNN(1, r2, r1, 0, out)
	ctx.Host(gpu.Op{Phase: phase, Sync: true}, float64(c*c*c)/3)
	return out, nil
}

func roundF32Matrix(b *la.Dense) {
	for j := 0; j < b.Cols; j++ {
		col := b.Col(j)
		for i := range col {
			col[i] = float64(float32(col[i]))
		}
	}
}
