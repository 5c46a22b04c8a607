package ortho

import (
	"cagmres/internal/gpu"
	"cagmres/internal/la"
)

// CARRQR is the communication-avoiding rank-revealing QR the paper lists
// as future work (its reference [10]): a CAQR sweep produces the global
// R factor with the usual two transfers, and a column-pivoted QR of that
// small R on the host — free of communication, since rank(V) = rank(R) —
// reveals the numerical rank and the pivot order. Unlike the plain
// strategies, a rank-deficient window is not an error: Factor
// orthonormalizes the full window (CAQR never divides by a pivot) and
// FactorRankRevealing additionally reports the rank and permutation so a
// caller can truncate the basis.
type CARRQR struct {
	// Tol is the relative rank threshold passed to la.QRCPFactor.Rank
	// (<= 0 selects the default n*eps).
	Tol float64
}

// Name implements TSQR.
func (CARRQR) Name() string { return "CARRQR" }

// Factor implements TSQR: identical to CAQR but tolerant of rank
// deficiency (the rank information is simply discarded).
func (c CARRQR) Factor(ctx *gpu.Context, w []*la.Dense, phase string) (*la.Dense, error) {
	r, _, _, err := c.FactorRankRevealing(ctx, w, phase)
	return r, err
}

// FactorRankRevealing orthonormalizes the window and returns the R
// factor, the numerical rank, and the pivot permutation (perm[j] is the
// original index of the j-th most independent column). The window itself
// holds the unpivoted Q, so V_original = Q R still holds column for
// column.
func (c CARRQR) FactorRankRevealing(ctx *gpu.Context, w []*la.Dense, phase string) (r *la.Dense, rank int, perm []int, err error) {
	r, err = (CAQR{}).Factor(ctx, w, phase)
	if err == ErrRankDeficient {
		// CAQR flags exactly-zero diagonals but still produced a valid
		// orthonormal extension; the rank analysis below quantifies it.
		err = nil
	}
	if err != nil {
		return nil, 0, nil, err
	}
	cp := la.QRCP(r)
	ctx.Host(gpu.Op{Phase: phase, Sync: true}, 4*float64(r.Rows)*float64(r.Rows)*float64(r.Rows)/3)
	rank = cp.Rank(c.Tol)
	return r, rank, cp.Perm, nil
}
