package distalgo

import (
	"sort"

	"bedom/internal/dist"
	"bedom/internal/graph"
)

// This file implements the constant-round LOCAL-model dominating set
// approximation of Lenzen, Pignolet and Wattenhofer for planar graphs
// ([36] in the paper), which Theorem 17 combines with the LOCAL connector to
// obtain a constant-factor *connected* dominating set on planar graphs in a
// constant number of rounds.
//
// The algorithm has two steps:
//
//  1. A := { v : no two other vertices u, w satisfy N(v)\{u,w} ⊆ N(u)∪N(w) }.
//     On planar graphs |A| = O(OPT).
//  2. Every vertex not dominated by A selects, among its closed neighbors,
//     one that covers the largest number of vertices not dominated by A
//     (ties broken by smaller id); the selected vertices join the set.
//
// Both steps only require constant-radius neighborhood information, so the
// distributed version runs in a constant number of LOCAL rounds.

// coverableByTwo reports whether there exist two vertices u, w (both ≠ v)
// with N(v) \ {u, w} ⊆ N(u) ∪ N(w).  bw is a walker on g.
func coverableByTwo(g *graph.Graph, bw *graph.BallWalker, v int) bool {
	nv := g.NeighborsInts(v)
	if len(nv) <= 2 {
		// Two vertices can always absorb a neighborhood of size ≤ 2.
		return true
	}
	// Any useful candidate either equals a neighbor of v (so that it is
	// excluded from the requirement) or is adjacent to a vertex of N(v).
	// Fix x0 = the first neighbor: one of the two candidates must cover or
	// equal x0, so it comes from N[x0]; the second candidate ranges over the
	// same candidate pool around v.
	x0 := nv[0]
	firstCands := append([]int{x0}, g.NeighborsInts(x0)...)
	pool := bw.Ball(v, 2) // N²[v]
	for _, u := range firstCands {
		if u == v {
			continue
		}
		for _, w := range pool {
			if w == v {
				continue
			}
			if coversAllBut(g, nv, u, w) {
				return true
			}
		}
	}
	return false
}

// coversAllBut reports whether N(v)\{u,w} ⊆ N(u) ∪ N(w), given nv = N(v).
func coversAllBut(g *graph.Graph, nv []int, u, w int) bool {
	for _, x := range nv {
		if x == u || x == w {
			continue
		}
		if !g.HasEdge(x, u) && !g.HasEdge(x, w) {
			return false
		}
	}
	return true
}

// lenzenNode is the distributed implementation.  Round structure:
//
//	rounds 1..2   gather the records of all vertices within distance 2
//	round  3      compute A locally and broadcast membership
//	round  4      broadcast "dominated by A" status
//	round  5      broadcast the white count
//	round  6      undominated vertices broadcast their chosen dominator
//	round  7      chosen vertices notice they were selected
type lenzenNode struct {
	id     int
	gather ballGatherer
	rounds int

	inA          bool
	dominatedByA bool
	neighborDomA map[int]bool
	white        map[int]int
	chosen       bool
	selfWhite    int
}

func (l *lenzenNode) Init(ctx *dist.Context) {
	self := VertexInfo{ID: l.id, Adj: ctx.Neighbors()}
	l.gather.seed(self)
	l.neighborDomA = make(map[int]bool)
	l.white = make(map[int]int)
	ctx.Broadcast(l.gather.flush())
}

func (l *lenzenNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	l.rounds++
	switch l.rounds {
	case 1:
		for _, in := range inbox {
			if msg, ok := in.Msg.(*KnowledgeMessage); ok {
				l.gather.absorb(msg)
			}
		}
		if msg := l.gather.flush(); msg != nil {
			ctx.Broadcast(msg)
		}
	case 2:
		for _, in := range inbox {
			if msg, ok := in.Msg.(*KnowledgeMessage); ok {
				l.gather.absorb(msg)
			}
		}
		// Knowledge of the 2-ball is complete: decide membership in A.
		lg, _, toLocal, _ := l.gather.localView()
		l.inA = !coverableByTwo(lg, lg.NewBallWalker(), toLocal[l.id])
		ctx.Broadcast(dist.IntMessage(boolToInt(l.inA)))
	case 3:
		domA := l.inA
		for _, in := range inbox {
			if v, ok := in.Msg.(dist.IntMessage); ok && int(v) == 1 {
				domA = true
			}
		}
		l.dominatedByA = domA
		ctx.Broadcast(dist.IntMessage(boolToInt(l.dominatedByA)))
	case 4:
		for _, in := range inbox {
			if v, ok := in.Msg.(dist.IntMessage); ok {
				l.neighborDomA[in.From] = int(v) == 1
			}
		}
		// White count over the closed neighborhood.
		c := 0
		if !l.dominatedByA {
			c++
		}
		for _, u := range ctx.Neighbors() {
			if !l.neighborDomA[u] {
				c++
			}
		}
		l.selfWhite = c
		ctx.Broadcast(dist.IntMessage(c))
	case 5:
		for _, in := range inbox {
			if v, ok := in.Msg.(dist.IntMessage); ok {
				l.white[in.From] = int(v)
			}
		}
		if !l.dominatedByA {
			best := l.id
			bestWhite := l.selfWhite
			neigh := append([]int(nil), ctx.Neighbors()...)
			sort.Ints(neigh)
			for _, u := range neigh {
				if l.white[u] > bestWhite || (l.white[u] == bestWhite && u < best) {
					best = u
					bestWhite = l.white[u]
				}
			}
			if best == l.id {
				l.chosen = true
			} else {
				ctx.Broadcast(dist.IntMessage(best))
			}
		}
	case 6:
		for _, in := range inbox {
			if v, ok := in.Msg.(dist.IntMessage); ok && int(v) == l.id {
				l.chosen = true
			}
		}
	}
}

func (l *lenzenNode) Done() bool { return l.rounds >= 6 }

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// LenzenResult is the outcome of the distributed planar MDS approximation.
type LenzenResult struct {
	// Set is the computed dominating set (r = 1), sorted.
	Set []int
	// SizeA is the size of the first-phase set A.
	SizeA int
	// Stats is the simulator cost (a constant number of LOCAL rounds).
	Stats dist.Stats
}

// RunLenzen executes the Lenzen–Pignolet–Wattenhofer algorithm in the LOCAL
// model.  It is intended for planar graphs (where it guarantees a constant
// approximation factor) but produces a valid dominating set on every graph.
func RunLenzen(g *graph.Graph, opts dist.Options) (*LenzenResult, error) {
	nodes := make([]lenzenNode, g.N())
	if opts.Phase == "" {
		opts.Phase = "lenzen"
	}
	runner := dist.NewRunner(g, dist.Local, opts)
	stats, err := runner.Run(func(v int) dist.Node {
		nodes[v] = lenzenNode{id: v}
		return &nodes[v]
	})
	if err != nil {
		return nil, err
	}
	res := &LenzenResult{Stats: stats}
	for v := range nodes {
		nd := &nodes[v]
		if nd.inA || nd.chosen {
			res.Set = append(res.Set, v)
		}
		if nd.inA {
			res.SizeA++
		}
	}
	sort.Ints(res.Set)
	return res, nil
}
