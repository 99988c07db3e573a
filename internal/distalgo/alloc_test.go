//go:build !race

package distalgo

import (
	"fmt"
	"testing"

	"bedom/internal/dist"
	"bedom/internal/gen"
	"bedom/internal/graph"
)

// TestDistPipelineAllocs bounds the allocations of one probed run of each
// pipeline the engine serves, per vertex of the input.  The bounds are about
// 1.5 times the measured maxima (paper 3.4, kubsv 8.7, cds 8.0 on these
// inputs), where per-node maps and per-round message copies cost 39 to 172.
// The race detector's instrumentation allocates, so this guard runs only in
// non-race builds.
func TestDistPipelineAllocs(t *testing.T) {
	pipelines := []struct {
		name  string
		bound float64 // allocations per vertex
		run   func(g *graph.Graph, r int, o dist.Options) error
	}{
		{"paper", 5, func(g *graph.Graph, r int, o dist.Options) error {
			_, err := RunDomSet(g, r, dist.CongestBC, o)
			return err
		}},
		{"kubsv", 12, func(g *graph.Graph, r int, o dist.Options) error {
			_, err := RunKSV(g, r, dist.Local, o)
			return err
		}},
		{"cds", 12, func(g *graph.Graph, r int, o dist.Options) error {
			_, err := RunConnectedDomSet(g, r, dist.CongestBC, o)
			return err
		}},
	}
	for _, in := range []struct {
		family string
		n      int
	}{{"grid-holes", 400}, {"geometric", 500}, {"outerplanar", 600}, {"tree", 800}} {
		f, err := gen.FamilyByName(in.family)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := gen.LargestComponent(f.Generate(in.n, 1))
		for _, r := range []int{1, 2} {
			for _, pl := range pipelines {
				name := fmt.Sprintf("%s/r=%d/%s", in.family, r, pl.name)
				allocs := testing.AllocsPerRun(2, func() {
					o := dist.Options{Workers: 1, Probe: &dist.Probe{}}
					if err := pl.run(g, r, o); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				})
				perVertex := allocs / float64(g.N())
				t.Logf("%s: %.0f allocs, %.2f per vertex", name, allocs, perVertex)
				if perVertex > pl.bound {
					t.Errorf("%s: %.2f allocations per vertex, bound %.0f", name, perVertex, pl.bound)
				}
			}
		}
	}
}
