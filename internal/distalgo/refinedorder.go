package distalgo

import (
	"fmt"
	"sort"

	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// This file implements a distributed *refined* order computation that follows
// the structure of the Nešetřil–Ossona de Mendez pipeline (Theorem 3) more
// closely than the plain H-partition: after a base H-partition and one run of
// Algorithm 4, every vertex knows its weak-reachability "shortcut" neighbors
// together with routing paths of length at most the horizon.  A second,
// relayed H-partition is then executed on this shortcut graph — messages
// between shortcut neighbors travel along the stored paths, so each logical
// step costs up to `horizon` communication rounds — and the resulting classes
// define the refined order.  The total round count is O(horizon·log n + r),
// matching the O(r²·log n) shape of the paper's Theorem 3 (it is the
// iterated-orientation idea of [46] with the fraternal/transitive closure
// replaced by the weak-reachability closure that Algorithm 4 computes
// anyway).
//
// The refined order typically has a noticeably smaller measured wcol_2r than
// the base H-partition order (see experiment E8), which translates into
// smaller dominating sets in Theorems 9 and 10.

// helloToken announces a shortcut edge: it travels from the weakly reaching
// vertex to the target so that both endpoints learn the edge and a routing
// path for it.
//
// joinToken announces that a vertex has joined a class of the relayed
// H-partition (i.e. became inactive); it travels to all of its shortcut
// neighbors.
//
// Both are encoded as TokenMessage entries of the form
//
//	[kind, hopIndex, path[0], path[1], ..., path[L]]
//
// where path[0] is the origin, path[L] the destination and hopIndex the
// position of the current holder within the path; kind 0 = hello, 1 = join.
// Keeping the full path in the token lets the destination of a hello token
// learn the reverse routing path back to the origin.

const (
	tokHello = 0
	tokJoin  = 1
)

// refinedNode runs the symmetrisation ("hello") phase followed by the
// continuous relayed H-partition.
type refinedNode struct {
	id        int
	horizon   int
	threshold int
	// witnesses are this vertex's weak-reachability paths (self → target).
	witnesses []order.PathTo

	// shortcut neighbors: neighbor id → routing path (self first).
	shortcut map[int][]int
	// activeNeighbors tracks shortcut neighbors not yet known to have joined.
	activeNeighbors map[int]bool
	// pendingJoins buffers join announcements received before the hello
	// phase finished building the neighbor table.
	pendingJoins map[int]bool

	active bool
	class  int
	rounds int
	// idleRounds counts rounds without incoming tokens, used as a
	// stall-breaker so that termination never depends on the threshold
	// being a true degeneracy bound of the shortcut graph.
	idleRounds int
	// announced reports whether the join announcement has been sent.
	announced bool
	tok       tokenOut
	maxRounds int
}

func (rn *refinedNode) Init(ctx *dist.Context) {
	rn.active = true
	rn.shortcut = make(map[int][]int)
	rn.activeNeighbors = make(map[int]bool)
	rn.pendingJoins = make(map[int]bool)
	// Originate hello tokens along every witness path (skip the self
	// witness).
	for _, pt := range rn.witnesses {
		if pt.Target == rn.id || len(pt.Path) < 2 {
			continue
		}
		// Record the shortcut edge locally.
		rn.shortcut[pt.Target] = append([]int(nil), pt.Path...)
		rn.activeNeighbors[pt.Target] = true
		rn.tok.next = append(rn.tok.next, append([]int{tokHello, 0}, pt.Path...))
	}
	rn.tok.send(ctx)
}

// handleToken processes a token whose next hop is this vertex and returns the
// forwarded continuation (nil if the token terminated here or is not
// addressed to this vertex).
func (rn *refinedNode) handleToken(tok []int) []int {
	if len(tok) < 4 {
		return nil
	}
	kind, hop := tok[0], tok[1]
	path := tok[2:]
	if hop+1 >= len(path) || path[hop+1] != rn.id {
		return nil
	}
	hop++
	if hop < len(path)-1 {
		// Not yet at the destination: forward with the advanced hop index.
		fwd := append([]int(nil), tok...)
		fwd[1] = hop
		return fwd
	}
	// Token arrived at its destination (this vertex).
	origin := path[0]
	switch kind {
	case tokHello:
		if _, ok := rn.shortcut[origin]; !ok {
			// Store the reverse path back to the origin.
			rev := make([]int, len(path))
			for i, x := range path {
				rev[len(path)-1-i] = x
			}
			rn.shortcut[origin] = rev
			if rn.pendingJoins[origin] {
				delete(rn.pendingJoins, origin)
			} else {
				rn.activeNeighbors[origin] = true
			}
		}
	case tokJoin:
		if _, ok := rn.shortcut[origin]; ok {
			delete(rn.activeNeighbors, origin)
		} else {
			rn.pendingJoins[origin] = true
		}
	}
	return nil
}

func (rn *refinedNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	rn.rounds++
	sawToken := false
	for _, in := range inbox {
		toks, ok := in.Msg.(*TokenMessage)
		if !ok {
			continue
		}
		for _, tok := range *toks {
			sawToken = true
			if cont := rn.handleToken(tok); cont != nil {
				rn.tok.next = append(rn.tok.next, cont)
			}
		}
	}
	if sawToken {
		rn.idleRounds = 0
	} else {
		rn.idleRounds++
	}
	// After the hello phase has had time to complete (horizon rounds), the
	// relayed H-partition starts: join as soon as the number of still-active
	// shortcut neighbors drops to the threshold.  The stall-breaker forces a
	// join when nothing has moved for a while, so termination never depends
	// on the threshold being a true degeneracy bound of the shortcut graph.
	if rn.active && rn.rounds >= rn.horizon {
		if len(rn.activeNeighbors) <= rn.threshold || rn.idleRounds > 2*rn.horizon+2 {
			rn.active = false
			rn.class = rn.rounds
		}
	}
	if !rn.active && !rn.announced {
		rn.announced = true
		neighbors := make([]int, 0, len(rn.shortcut))
		for u := range rn.shortcut {
			neighbors = append(neighbors, u)
		}
		sort.Ints(neighbors)
		for _, u := range neighbors {
			path := rn.shortcut[u]
			if len(path) < 2 {
				continue
			}
			rn.tok.next = append(rn.tok.next, append([]int{tokJoin, 0}, path...))
		}
	}
	rn.tok.next = dedupPaths(rn.tok.next)
	rn.tok.send(ctx)
}

func (rn *refinedNode) Done() bool {
	return (!rn.active && rn.announced) || rn.rounds >= rn.maxRounds
}

// RefinedOrderResult is the output of the distributed refined-order pipeline.
type RefinedOrderResult struct {
	// Order is the refined linear order.
	Order *order.Order
	// BaseOrder is the H-partition order the refinement started from.
	BaseOrder *order.Order
	// Stats accumulates all phases (base H-partition, Algorithm 4 on the base
	// order, relayed H-partition).
	Stats PipelineStats
}

// RunRefinedOrder computes the refined order distributively:
//
//  1. distributed H-partition (base order, O(log n) rounds),
//  2. Algorithm 4 with the given horizon on the base order (every vertex
//     learns its weak-reachability shortcut neighbors and routing paths),
//  3. a relayed H-partition on the shortcut graph (join notifications travel
//     along the stored paths), whose classes define the refined order:
//     vertices that stay active longer come earlier, ties by id.
//
// The threshold parameter plays the role of the class constant (2+ε)·a for
// the shortcut graph; passing 0 selects a default derived from the average
// shortcut degree.
func RunRefinedOrder(g *graph.Graph, horizon int, threshold int, model dist.Model, opts dist.Options) (*RefinedOrderResult, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("distalgo: horizon must be ≥ 1, got %d", horizon)
	}
	res := &RefinedOrderResult{}
	hp, err := RunHPartition(g, model, g.Degeneracy(), 1, opts)
	if err != nil {
		return nil, err
	}
	res.BaseOrder = hp.Order
	res.Stats.Add(hp.Stats)

	wres, err := RunWReachDist(g, hp.Order, horizon, model, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.Add(wres.Stats)

	if threshold <= 0 {
		// Default: the average shortcut degree (counting both directions).
		// A tight threshold is what differentiates periphery from core —
		// with a very generous threshold every vertex would join in the
		// first step and the refinement would degenerate to the base order.
		// Sub-shortcut-graphs may locally exceed the average; the
		// stall-breaker inside the nodes guarantees termination regardless.
		total := 0
		for _, w := range wres.Witnesses {
			total += len(w) - 1
		}
		avg := 1
		if g.N() > 0 {
			avg = 2*total/g.N() + 1
		}
		threshold = avg
	}

	nodes := make([]refinedNode, g.N())
	if opts.Phase == "" {
		opts.Phase = "refined-order"
	}
	runner := dist.NewRunner(g, model, opts)
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 20 * (g.N() + 10)
	}
	stats, err := runner.Run(func(v int) dist.Node {
		nodes[v] = refinedNode{
			id:        v,
			horizon:   horizon,
			threshold: threshold,
			witnesses: wres.Witnesses[v],
			maxRounds: maxRounds,
		}
		return &nodes[v]
	})
	if err != nil {
		return nil, fmt.Errorf("distalgo: relayed H-partition failed: %w", err)
	}
	res.Stats.Add(stats)

	classes := make([]int, g.N())
	for v := range nodes {
		classes[v] = nodes[v].class
	}
	res.Order = OrderFromClasses(classes)
	return res, nil
}

// RunDomSetRefined runs the Theorem 9 pipeline with the refined order: the
// refined order is computed distributively, then Algorithm 4 and the
// election are run on it.
func RunDomSetRefined(g *graph.Graph, r int, model dist.Model, opts dist.Options) (*DomSetResult, error) {
	ro, err := RunRefinedOrder(g, 2*r, 0, model, opts)
	if err != nil {
		return nil, err
	}
	res, err := RunDomSetWithOrder(g, ro.Order, r, model, opts)
	if err != nil {
		return nil, err
	}
	var all PipelineStats
	for _, ph := range ro.Stats.Phases {
		all.Add(ph)
	}
	for _, ph := range res.Stats.Phases {
		all.Add(ph)
	}
	res.Stats = all
	return res, nil
}
