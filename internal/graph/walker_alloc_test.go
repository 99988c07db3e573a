//go:build !race

package graph_test

import (
	"testing"

	"bedom/internal/gen"
)

// The race detector's instrumentation allocates, so this guard runs only in
// non-race builds.
func TestBallWalkerAllocs(t *testing.T) {
	g := gen.Grid(40, 40)
	w := g.NewBallWalker()
	members := append([]int(nil), w.Ball(820, 4)...)
	allocs := testing.AllocsPerRun(100, func() {
		w.Ball(820, 4)
		w.EccentricityWithin(820, members)
		w.Ball(0, 3)
	})
	if allocs != 0 {
		t.Fatalf("warmed BallWalker allocates %.1f times per run, want 0", allocs)
	}
}
