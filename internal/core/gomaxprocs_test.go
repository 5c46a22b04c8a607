package core

import (
	"math"
	"runtime"
	"testing"

	"cagmres/internal/gpu"
	"cagmres/internal/profile"
)

// TestModeledOutputInvariantUnderGOMAXPROCS pins that the modeled clock
// is a function of the program, not of the host's scheduler: device
// kernels run on their own goroutines, but every charge is submitted in
// program order, so the ledger, the overlapped makespan and the iterate
// must be bit-identical at any GOMAXPROCS — on the host-hub, peer and
// cluster charging paths, with overlap off and on.
func TestModeledOutputInvariantUnderGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fab, err := profile.FabricByName("ib-hdr")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := profile.WithCluster(profile.A100PCIe(), 2, fab)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		ledger     string
		overlapped float64
		x          []float64
	}
	solve := func(p gpu.Profile, overlap bool) run {
		ctx := gpu.NewContextWithProfile(3, p)
		prob, err := NewProblem(ctx, laplace2D(24, 24, 0.4), randomRHS(576, 3), KWay, true)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CAGMRES(prob, Options{M: 20, S: 5, Tol: 1e-8, Ortho: "CholQR", Overlap: overlap})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		return run{ledger: ctx.Stats().String(), overlapped: ctx.OverlappedTime(), x: res.X}
	}
	for _, p := range []gpu.Profile{profile.M2090(), profile.A100PCIe(), cluster} {
		for _, overlap := range []bool{false, true} {
			var want run
			for i, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				got := solve(p, overlap)
				if i == 0 {
					want = got
					continue
				}
				if got.ledger != want.ledger {
					t.Errorf("%s overlap=%v GOMAXPROCS=%d: ledger differs from GOMAXPROCS=1:\n%s\nvs\n%s",
						p.Name, overlap, procs, got.ledger, want.ledger)
				}
				if math.Float64bits(got.overlapped) != math.Float64bits(want.overlapped) {
					t.Errorf("%s overlap=%v GOMAXPROCS=%d: OverlappedTime %x, want %x",
						p.Name, overlap, procs, got.overlapped, want.overlapped)
				}
				for j := range want.x {
					if math.Float64bits(got.x[j]) != math.Float64bits(want.x[j]) {
						t.Fatalf("%s overlap=%v GOMAXPROCS=%d: x[%d] = %x, want %x",
							p.Name, overlap, procs, j, got.x[j], want.x[j])
					}
				}
			}
		}
	}
}
