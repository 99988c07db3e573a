package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricDef `json:"end_to_end"`
	PerLayer  []metricDef `json:"per_layer"`
}

// TestSmokeEveryMetric runs every workload at a tiny size, untraced and
// traced, against a domserved built from this tree, and checks that each
// result carries exactly the metrics BENCHMARK.json names, with their units.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives domserved")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	want := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	if got, w := want(endToEnd), want(spec.EndToEnd); !sameMap(got, w) {
		t.Fatalf("end-to-end metrics %v, BENCHMARK.json has %v", got, w)
	}
	if got, w := want(perLayer), want(spec.PerLayer); !sameMap(got, w) {
		t.Fatalf("per-layer metrics %v, BENCHMARK.json has %v", got, w)
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "domserved")
	if out, err := exec.Command("go", "build", "-o", bin, "bedom/cmd/domserved").CombinedOutput(); err != nil {
		t.Fatalf("build domserved: %v\n%s", err, out)
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: wl.Name, seed: 5, seconds: 2, trace: trace,
				domserved: bin, work: dir, goroot: goroot(t),
				scale: 0.05, runDir: filepath.Join(dir, "run"),
			}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			defs := spec.EndToEnd
			if trace {
				defs = spec.PerLayer
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", wl.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Fatalf("%s trace=%v: metric %s = %+v, want unit %q", wl.Name, trace, d.Name, m, d.Unit)
				}
			}
			if !trace {
				for _, d := range defs {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", wl.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

func sameMap(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
