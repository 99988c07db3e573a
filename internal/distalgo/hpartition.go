package distalgo

import (
	"cmp"
	"fmt"
	"slices"

	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// HPartitionResult is the output of the distributed H-partition.
type HPartitionResult struct {
	// Class[v] is the phase in which vertex v joined (1-based); vertices of
	// low degree join early.
	Class []int
	// NumClasses is the number of phases used (O(log n) for graphs of
	// bounded arboricity).
	NumClasses int
	// Order is the linear order derived from the classes: vertices of
	// *higher* class come first (are smaller), ties broken by id.  Every
	// vertex has at most (2+eps)·a neighbors smaller than itself.
	Order *order.Order
	// Stats is the simulator cost of the run.
	Stats dist.Stats
}

// hpartitionNode implements the Barenboim–Elkin H-partition: in each phase,
// every still-active vertex with at most (2+eps)·a active neighbors joins the
// current class and announces it.  Nodes only ever broadcast a single word
// (their activity status), so the protocol runs in CONGEST_BC.
type hpartitionNode struct {
	threshold int
	active    bool
	class     int
	// activeNeighbors counts the neighbors that have not announced joining
	// yet; every neighbor announces "inactive" exactly once.
	activeNeighbors int
	finished        bool
}

// Message values: 0 = "still active", 1 = "I just joined (now inactive)".
const (
	msgActive   = 0
	msgInactive = 1
)

func (h *hpartitionNode) Init(ctx *dist.Context) {
	h.active = true
	h.activeNeighbors = ctx.Degree()
	ctx.Broadcast(dist.IntMessage(msgActive))
}

func (h *hpartitionNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	for _, in := range inbox {
		if int(in.Msg.(dist.IntMessage)) == msgInactive {
			h.activeNeighbors--
		}
	}
	if !h.active {
		h.finished = true
		return
	}
	if h.activeNeighbors <= h.threshold {
		// Join the class of the current phase.
		h.active = false
		h.class = ctx.Round()
		ctx.Broadcast(dist.IntMessage(msgInactive))
		return
	}
	ctx.Broadcast(dist.IntMessage(msgActive))
}

func (h *hpartitionNode) Done() bool { return h.finished }

// RunHPartition executes the distributed H-partition in the given model
// (CONGEST_BC suffices).  The parameter a should be an upper bound on the
// degeneracy/arboricity of the graph class (the paper's algorithms assume
// the class, and hence such bounds, are known a priori); eps > 0 controls
// the phase threshold (2+eps)·a.
func RunHPartition(g *graph.Graph, model dist.Model, a int, eps float64, opts dist.Options) (*HPartitionResult, error) {
	if a < 1 {
		a = 1
	}
	if eps <= 0 {
		eps = 1
	}
	threshold := int(float64(a) * (2 + eps))
	nodes := make([]hpartitionNode, g.N())
	if opts.Phase == "" {
		opts.Phase = "hpartition"
	}
	runner := dist.NewRunner(g, model, opts)
	stats, err := runner.Run(func(v int) dist.Node {
		nodes[v] = hpartitionNode{threshold: threshold}
		return &nodes[v]
	})
	if err != nil {
		return nil, fmt.Errorf("distalgo: H-partition failed: %w", err)
	}
	res := &HPartitionResult{Class: make([]int, g.N()), Stats: stats}
	for v := range nodes {
		nd := &nodes[v]
		res.Class[v] = nd.class
		if nd.class > res.NumClasses {
			res.NumClasses = nd.class
		}
	}
	res.Order = OrderFromClasses(res.Class)
	return res, nil
}

// OrderFromClasses converts H-partition classes into the library's Order:
// vertices with a higher class (later joiners, the "core" of the graph) come
// first; ties are broken by vertex id.  The corresponding super-id of a
// vertex is simply its position in this order.
func OrderFromClasses(class []int) *order.Order {
	n := len(class)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		if class[a] != class[b] {
			return cmp.Compare(class[b], class[a])
		}
		return cmp.Compare(a, b)
	})
	o, err := order.FromPermutation(perm)
	if err != nil {
		panic("distalgo: internal error building order from classes: " + err.Error())
	}
	return o
}
