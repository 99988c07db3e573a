//go:build !race

package dist

import (
	"testing"

	"bedom/internal/graph"
)

// echoNode broadcasts the same one-word message for a fixed number of rounds
// (small IntMessage values box without allocating).
type echoNode struct{ rounds, total int }

func (n *echoNode) Init(ctx *Context) { ctx.Broadcast(IntMessage(1)) }

func (n *echoNode) Round(ctx *Context, _ []Inbound) {
	n.rounds++
	if n.rounds < n.total {
		ctx.Broadcast(IntMessage(1))
	}
}

func (n *echoNode) Done() bool { return n.rounds >= n.total }

// TestRunnerAllocs checks that a probed run's own allocations do not grow
// with the graph: the adjacency arena, the node contexts and the per-worker
// inbox buffers are allocated once per run, never per vertex or per round
// and vertex.  The race detector's instrumentation allocates, so this guard
// runs only in non-race builds.
func TestRunnerAllocs(t *testing.T) {
	allocs := func(g *graph.Graph) float64 {
		nodes := make([]echoNode, g.N())
		return testing.AllocsPerRun(5, func() {
			for v := range nodes {
				nodes[v] = echoNode{total: 6}
			}
			r := NewRunner(g, CongestBC, Options{Workers: 1, Probe: &Probe{}})
			if _, err := r.Run(func(v int) Node { return &nodes[v] }); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(testGrid(10, 10)), allocs(testGrid(40, 40))
	t.Logf("allocations per run: %.0f (n=100), %.0f (n=1600)", small, large)
	if large != small {
		t.Fatalf("a run allocates %.0f times at n=1600 but %.0f at n=100", large, small)
	}
	// About a dozen allocations set a run up; each round adds its two
	// fan-out closures and the probe's round profile.
	if small > 64 {
		t.Fatalf("a six-round run allocates %.0f times, want at most 64", small)
	}
}
