//go:build !race

package cover

import (
	"testing"

	"bedom/internal/gen"
	"bedom/internal/order"
)

// TestComputeStatsAllocs pins that the radius sweep allocates per worker,
// not per cluster: one walker's scratch serves every cluster of its block.
// The race detector's instrumentation allocates, so this guard runs only in
// non-race builds.
func TestComputeStatsAllocs(t *testing.T) {
	g := gen.Grid(30, 30)
	c := Build(g, order.ConstructDefault(g, 2), 2)
	allocs := testing.AllocsPerRun(5, func() { c.ComputeStatsWorkers(g, 1) })
	t.Logf("%d clusters, %.0f allocations", c.NumClusters(), allocs)
	if allocs > 32 {
		t.Fatalf("ComputeStatsWorkers(g, 1) allocates %.0f times for %d clusters, want ≤ 32",
			allocs, c.NumClusters())
	}
}
