package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads listed, program has %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q, program has %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		listed []def
		prog   []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.listed) != len(c.prog) {
			t.Fatalf("%d metrics listed, program has %d", len(c.listed), len(c.prog))
		}
		for i, d := range c.listed {
			p := c.prog[i]
			if d.Name != p.name || d.Unit != p.unit || d.Better != p.better {
				t.Errorf("metric %d: listed %+v, program %s %s %s", i, d, p.name, p.unit, p.better)
			}
		}
	}
}
