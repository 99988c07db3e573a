package distalgo

import (
	"fmt"
	"sort"

	"bedom/internal/connect"
	"bedom/internal/dist"
	"bedom/internal/graph"
)

// localConnectNode implements the LOCAL-model connector of Lemma 16 /
// Theorem 17.  Phase 1 (2r+1 rounds): every vertex gathers the records of
// all vertices within distance 2r+1, including their dominator flags.
// Phase 2: every dominator v locally computes its ball B(v) of the
// D-partition, its neighbors in the contracted minor H(D) and the canonical
// connecting path to each such neighbor, and then notifies the vertices on
// its half of every path (r forwarding rounds) that they belong to the
// connected dominating set D'.  Total: 3r+1 rounds.
type localConnectNode struct {
	id  int
	r   int
	inD bool

	gather   ballGatherer
	tok      tokenOut
	inDPrime bool
	rounds   int
	gatherT  int // number of gathering rounds (2r+1)
	totalT   int // total rounds before Done (3r+1)
}

func (l *localConnectNode) Init(ctx *dist.Context) {
	l.gatherT = 2*l.r + 1
	l.totalT = 3*l.r + 1
	if l.inD {
		l.inDPrime = true
	}
	self := VertexInfo{ID: l.id, Flag: l.inD, Adj: ctx.Neighbors()}
	l.gather.seed(self)
	ctx.Broadcast(l.gather.flush())
}

func (l *localConnectNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	l.rounds++
	for _, in := range inbox {
		switch msg := in.Msg.(type) {
		case *KnowledgeMessage:
			l.gather.absorb(msg)
		case *TokenMessage:
			for _, p := range *msg {
				if len(p) >= 2 && p[1] == l.id {
					l.inDPrime = true
					rest := p[1:]
					if len(rest) >= 2 {
						l.tok.next = append(l.tok.next, rest)
					}
				}
			}
		}
	}
	switch {
	case l.rounds < l.gatherT:
		// Keep flooding newly learned records.
		if msg := l.gather.flush(); msg != nil {
			ctx.Broadcast(msg)
		}
	case l.rounds == l.gatherT:
		// Knowledge of the (2r+1)-ball is complete; dominators compute their
		// connection paths and emit the first notification tokens.
		if l.inD {
			l.tok.next = append(l.tok.next, l.planTokens()...)
			l.tok.send(ctx)
		}
	default:
		// Forwarding phase.
		l.tok.next = dedupPaths(l.tok.next)
		l.tok.send(ctx)
	}
}

// planTokens performs the per-dominator local computation of Lemma 16 and
// returns the notification tokens for this dominator's halves of the
// canonical paths to its H(D)-neighbors.
func (l *localConnectNode) planTokens() [][]int {
	lg, toGlobal, toLocal, flags := l.gather.localView()
	selfLocal := toLocal[l.id]
	// Dominators visible in the local view.
	var localD []int
	for i, f := range flags {
		if f {
			localD = append(localD, i)
		}
	}
	sort.Ints(localD)
	idxOf := make(map[int]int, len(localD))
	for i, v := range localD {
		idxOf[v] = i
	}
	// Lexicographic comparisons use the *global* ids.
	ids := make([]int, lg.N())
	copy(ids, toGlobal)
	part := connect.DPartition(lg, localD, l.r, ids)
	selfIdx := idxOf[selfLocal]

	// H(D)-neighbors of this dominator: owners of vertices adjacent to B(v).
	hNeighbors := map[int]bool{}
	for _, e := range lg.Edges() {
		a, b := e[0], e[1]
		pa, pb := part[a], part[b]
		if pa == -1 || pb == -1 || pa == pb {
			continue
		}
		if pa == selfIdx {
			hNeighbors[localD[pb]] = true
		}
		if pb == selfIdx {
			hNeighbors[localD[pa]] = true
		}
	}
	var out [][]int
	neighList := make([]int, 0, len(hNeighbors))
	for u := range hNeighbors {
		neighList = append(neighList, u)
	}
	sort.Ints(neighList)
	for _, uLocal := range neighList {
		path := connect.CanonicalPath(lg, selfLocal, uLocal, 2*l.r+1, ids)
		if len(path) == 0 {
			continue
		}
		// Translate to global ids.
		gp := make([]int, len(path))
		for i, x := range path {
			gp[i] = toGlobal[x]
		}
		// The endpoint with the smaller global id covers the first half of
		// the canonical path; the other endpoint covers the rest (both ends
		// compute the same path, so the halves partition it).
		half := l.myHalf(gp)
		if len(half) >= 2 {
			out = append(out, half)
		}
	}
	return dedupPaths(out)
}

// myHalf returns the sub-path this dominator is responsible for, starting at
// the dominator itself (so it can be routed as a token).
func (l *localConnectNode) myHalf(gp []int) []int {
	lo, hi := gp[0], gp[len(gp)-1]
	mid := (len(gp) - 1) / 2
	if l.id == lo {
		return gp[:mid+1]
	}
	if l.id == hi {
		// Reverse the tail so it starts at this dominator.
		tail := gp[mid+1:]
		rev := make([]int, len(tail))
		for i, x := range tail {
			rev[len(tail)-1-i] = x
		}
		return rev
	}
	return nil
}

func (l *localConnectNode) Done() bool { return l.rounds >= l.totalT }

// LocalConnectorResult is the outcome of the LOCAL-model connector.
type LocalConnectorResult struct {
	// R is the domination radius of the input set.
	R int
	// Set is the connected distance-r dominating set D' ⊇ D, sorted.
	Set []int
	// Stats is the simulator cost (3r+1 rounds plus quiescence detection).
	Stats dist.Stats
}

// RunLocalConnector executes Lemma 16 in the LOCAL model: given a graph and
// a distance-r dominating set D (as membership flags or a vertex list), it
// returns a connected distance-r dominating set of size at most
// 2r·d·|D| where d bounds the edge density of depth-r minors of the class
// (d < 3 for planar graphs, giving the factor 6 of the paper for r = 1).
func RunLocalConnector(g *graph.Graph, D []int, r int, opts dist.Options) (*LocalConnectorResult, error) {
	if r < 1 {
		return nil, fmt.Errorf("distalgo: radius must be ≥ 1, got %d", r)
	}
	inD := make([]bool, g.N())
	for _, v := range D {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("distalgo: dominating set vertex %d out of range", v)
		}
		inD[v] = true
	}
	nodes := make([]localConnectNode, g.N())
	if opts.Phase == "" {
		opts.Phase = "local-connect"
	}
	runner := dist.NewRunner(g, dist.Local, opts)
	stats, err := runner.Run(func(v int) dist.Node {
		nodes[v] = localConnectNode{id: v, r: r, inD: inD[v]}
		return &nodes[v]
	})
	if err != nil {
		return nil, fmt.Errorf("distalgo: LOCAL connector failed: %w", err)
	}
	var set []int
	for v := range nodes {
		if nodes[v].inDPrime {
			set = append(set, v)
		}
	}
	return &LocalConnectorResult{R: r, Set: set, Stats: stats}, nil
}
