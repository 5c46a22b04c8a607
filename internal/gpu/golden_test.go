package gpu

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// goldenCompare checks got against the named golden file, rewriting it
// under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestStatsStringGolden(t *testing.T) {
	// A fixed workload on the fixed M2090 model: the rendered table is
	// fully deterministic, so any drift in the report format (or in the
	// cost constants it summarizes) must be a conscious golden update.
	ctx := NewContext(3, M2090())
	ctx.Reduce(Op{Phase: "mpk", Sync: true}, []int{4096, 4096, 4096})
	ctx.Broadcast(Op{Phase: "mpk", Sync: true}, []int{8192, 8192, 8192})
	ctx.Kernel(Op{Phase: "spmv", Sync: true}, repeatWork(ctx.NumDevices, Work{Flops: 2e8, Bytes: 1.5e9}))
	ctx.Reduce(Op{Phase: "tsqr", Sync: true}, []int{7440, 7440, 7440})
	ctx.Kernel(Op{Phase: "tsqr", Sync: true}, repeatWork(ctx.NumDevices, Work{Flops: 5.4e8, Bytes: 2.4e8}))
	ctx.Host(Op{Phase: "lsq", Sync: true}, 1.86e6)
	goldenCompare(t, "stats_string.golden", ctx.Stats().String())
}
