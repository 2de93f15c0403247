package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkNames(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", what, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestMetricsMatchBenchmarkJSON runs every workload briefly in both
// modes and checks that each prints exactly the metrics, with the
// units, that BENCHMARK.json declares, and that no end-to-end metric
// reads 0.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		wl := findWorkload(sw.Name)
		if wl == nil {
			t.Fatalf("workload %s unknown to the program", sw.Name)
		}
		e2e, err := runEndToEnd(wl, 1, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		checkNames(t, wl.name+" end-to-end", e2e.Metrics, spec.EndToEnd)
		for k, m := range e2e.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v", wl.name, k, m.Value)
			}
		}
		spans := filepath.Join(t.TempDir(), "spans.jsonl")
		layers, err := runTraced(wl, 1, 0.001, spans)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.name, err)
		}
		checkNames(t, wl.name+" per-layer", layers.Metrics, spec.PerLayer)
		if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no spans written (%v)", wl.name, err)
		}
	}
}
