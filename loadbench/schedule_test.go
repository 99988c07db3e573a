package main

import (
	"bytes"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// goroot is the Go root of the toolchain running the tests.
func goroot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Fatalf("go env GOROOT: %v", err)
	}
	return strings.TrimSpace(string(out))
}

func TestScheduleSameSeedSameBytes(t *testing.T) {
	for name, w := range workloads(0.05) {
		build := func(seed uint64) []byte {
			graphs, err := makeGraphs(w, seed, goroot(t))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return buildSchedule(w, seed, graphs, 3*time.Second).encode()
		}
		a, b := build(7), build(7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", name)
		}
		if bytes.Equal(a, build(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w := workloads(0.05)["churn"]
	graphs, err := makeGraphs(w, 3, goroot(t))
	if err != nil {
		t.Fatal(err)
	}
	s := buildSchedule(w, 3, graphs, 4*time.Second)
	if want := int(w.Rate * 4); len(s.Ops) != want {
		t.Fatalf("%d ops, want %d", len(s.Ops), want)
	}
	// A graph's operations stay on one lane, and every query runs on the
	// version left by the mutations scheduled before it.
	versions := make([]int, len(graphs))
	for _, o := range s.Ops {
		if o.Graph < 0 {
			continue
		}
		if o.Lane != o.Graph%w.Lanes {
			t.Fatalf("op %d of graph %d on lane %d", o.ID, o.Graph, o.Lane)
		}
		if o.Version != versions[o.Graph] {
			t.Fatalf("op %d: version %d, want %d", o.ID, o.Version, versions[o.Graph])
		}
		if o.Kind == opMutate {
			versions[o.Graph]++
		}
	}
	for g, ds := range s.Deltas {
		if len(ds) != versions[g] {
			t.Fatalf("graph %d: %d deltas recorded, %d mutations scheduled", g, len(ds), versions[g])
		}
	}
}
