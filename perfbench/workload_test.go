package main

import (
	"bytes"
	"testing"
)

// streamBytes renders the first n requests of a workload's stream.
func streamBytes(t *testing.T, name string, seed int64, n int) [][]byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		out[i] = w.gen(i).body
	}
	return out
}

func TestStreamDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a := streamBytes(t, name, 1, 40)
		b := streamBytes(t, name, 1, 40)
		c := streamBytes(t, name, 2, 40)
		same := true
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two streams of seed 1", name, i)
			}
			same = same && bytes.Equal(a[i], c[i])
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 give the same stream", name)
		}
	}
}

// gen must not depend on call order: concurrent clients pull indices
// from a shared counter in any interleaving.
func TestStreamIndexPure(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		late := w.gen(17).body
		for i := 0; i < 17; i++ {
			w.gen(i)
		}
		if !bytes.Equal(late, w.gen(17).body) {
			t.Errorf("%s: request 17 depends on what was generated before it", name)
		}
	}
}

func TestUploadsAreDistinct(t *testing.T) {
	w, err := newWorkload("upload-unique", 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		k := w.gen(i).key()
		if seen[k] {
			t.Fatalf("upload %d repeats an earlier body", i)
		}
		seen[k] = true
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newWorkload("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
