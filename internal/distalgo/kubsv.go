package distalgo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"bedom/internal/dist"
	"bedom/internal/graph"
)

// This file implements a constant-round distributed distance-r dominating
// set in the spirit of Kublenz, Siebertz and Vigny (arXiv 2012.02701): on
// classes of bounded expansion a constant number of "elect the locally
// densest ball, then let leftover vertices nominate their best cover"
// rounds yields a constant-factor approximation, without computing a
// weak-reachability order first.  The variant implemented here runs two
// phases:
//
//  1. Election.  Every vertex v computes c(v) = |B_r(v)| and joins the set
//     iff (c(v), -v) is maximal within B_2r(v) — the local-maximum rule
//     makes the phase symmetry-free and deterministic.  Elected balls are
//     pairwise > 2r apart, so on any graph the elected vertices are a
//     distance-2r scattered set (a lower-bound certificate, not just a
//     heuristic).
//  2. Cleanup.  Let U be the vertices not covered by the elected set.  Every
//     w computes the demand c'(w) = |B_r(w) ∩ U| (one snapshot, not updated
//     during the phase), and every u ∈ U nominates the vertex of B_r(u)
//     maximizing (c'(w), -w).  Nominated vertices join.
//
// Every step only needs information from a ball of radius ≤ 2r, so the
// distributed version runs in Θ(r) LOCAL rounds — constant for fixed r —
// unlike the paper's Theorem 9 pipeline, whose order computation costs
// O(log n) rounds.  The price is a weaker (but on bounded expansion classes
// still constant) approximation guarantee; experiment E10 measures the gap.

// KSVSequential is the sequential reference of the constant-round algorithm;
// the distributed version (RunKSV) must produce exactly the same set.
func KSVSequential(g *graph.Graph, r int) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	// c(v) = |B_r(v)|: the coverage every vertex could offer initially.
	bw := g.NewBallWalker()
	c := make([]int, n)
	for v := 0; v < n; v++ {
		c[v] = len(bw.Ball(v, r))
	}
	// Phase 1: elect vertices whose (c, -id) is maximal within their 2r-ball.
	elected := make([]bool, n)
	covered := make([]bool, n)
	var D []int
	for v := 0; v < n; v++ {
		win := true
		for _, w := range bw.Ball(v, 2*r) {
			if c[w] > c[v] || (c[w] == c[v] && w < v) {
				win = false
				break
			}
		}
		elected[v] = win
	}
	for v := 0; v < n; v++ {
		if elected[v] {
			D = append(D, v)
			for _, u := range bw.Ball(v, r) {
				covered[u] = true
			}
		}
	}
	// Phase 2: demands against the uncovered snapshot, then nominations.
	demand := make([]int, n)
	for w := 0; w < n; w++ {
		cnt := 0
		for _, u := range bw.Ball(w, r) {
			if !covered[u] {
				cnt++
			}
		}
		demand[w] = cnt
	}
	nominated := make([]bool, n)
	for u := 0; u < n; u++ {
		if covered[u] {
			continue
		}
		best := u
		for _, w := range bw.Ball(u, r) {
			if demand[w] > demand[best] || (demand[w] == demand[best] && w < best) {
				best = w
			}
		}
		nominated[best] = true
	}
	for w := 0; w < n; w++ {
		if nominated[w] && !elected[w] {
			D = append(D, w)
		}
	}
	sort.Ints(D)
	return D
}

// KSV flooding phases (the tag routes records to the right accumulator; the
// windows are synchronized by round number, but a tag keeps boundary-round
// stragglers from being misfiled).
const (
	ksvPhaseCount    uint8 = iota + 1 // (id, c) records, radius 2r
	ksvPhaseElect                     // elected ids, radius r
	ksvPhaseUncov                     // uncovered ids, radius r
	ksvPhaseDemand                    // (id, c') records, radius r
	ksvPhaseNominate                  // nominated ids, radius r
)

// ksvRecord is one (vertex, value) pair flooded during a KSV phase.
type ksvRecord struct{ ID, Val int }

// ksvMessage carries the fresh records of one flooding phase.
type ksvMessage struct {
	Phase uint8
	Recs  []ksvRecord
}

// Words implements dist.Message: one word for the phase tag, two per record.
func (m ksvMessage) Words() int { return 1 + 2*len(m.Recs) }

// ksvFlood is the state of one hop-limited flood at a node.  Records are
// absorbed at most once and forwarded exactly once (the round windows in
// ksvNode bound the flooding radius; the node's id set dedups them).  Of
// the absorbed records a flood keeps only what the phase boundaries read:
// their number, the record with the largest (Val, −ID), and whether the
// node's own id is among them.
type ksvFlood struct {
	phase   uint8
	count   int
	best    ksvRecord // valid when count > 0
	hasSelf bool
}

// ksvNode is the distributed implementation.  Round structure (7r rounds):
//
//	rounds 1..r        gather the r-ball topology → c = |B_r(self)|
//	rounds r+1..3r     flood (id, c) to radius 2r → elect local maxima
//	rounds 3r+1..4r    flood elected ids to radius r → coverage status
//	rounds 4r+1..5r    flood uncovered ids to radius r → demand c'
//	rounds 5r+1..6r    flood (id, c') to radius r
//	rounds 6r+1..7r    flood nominations to radius r
type ksvNode struct {
	id     int
	r      int
	rounds int

	gather  ballGatherer
	c       int
	cFlood  ksvFlood // (id, c) within distance 2r
	elected bool
	elFlood ksvFlood // elected ids within distance r
	covered bool
	unFlood ksvFlood // uncovered ids within distance r
	ddFlood ksvFlood // (id, c') within distance r
	noFlood ksvFlood // nominated ids within distance r
	inSet   bool

	// seen holds id<<3 | phase for every record absorbed by any flood
	// (ids below 2²⁸, far beyond the graphs the simulator can hold).
	seen idSet
	// fresh holds the records to forward at the end of this round: those
	// new to the flood whose forwarding window is open.  A flood receives
	// records one round past its window, when they only update its tally.
	fresh []ksvRecord
	sent  sendBuffers[ksvMessage]
}

func (k *ksvNode) Init(ctx *dist.Context) {
	k.gather.seed(VertexInfo{ID: k.id, Adj: ctx.Neighbors()})
	k.cFlood.phase = ksvPhaseCount
	k.elFlood.phase = ksvPhaseElect
	k.unFlood.phase = ksvPhaseUncov
	k.ddFlood.phase = ksvPhaseDemand
	k.noFlood.phase = ksvPhaseNominate
	ctx.Broadcast(k.gather.flush())
}

// forwarding returns the flood whose forwarding window contains round t
// (nil while the r-ball is gathered and after the last window): one
// broadcast per round, so the protocol is also legal in CONGEST_BC.
func (k *ksvNode) forwarding(t int) *ksvFlood {
	r := k.r
	switch {
	case t < r:
		return nil
	case t < 3*r:
		return &k.cFlood
	case t < 4*r:
		return &k.elFlood
	case t < 5*r:
		return &k.unFlood
	case t < 6*r:
		return &k.ddFlood
	case t < 7*r:
		return &k.noFlood
	}
	return nil
}

// absorb folds records into flood f, queueing the new ones for forwarding
// when f is the flood fwd whose window is open.
func (k *ksvNode) absorb(f, fwd *ksvFlood, recs ...ksvRecord) {
	for _, rec := range recs {
		if !k.seen.insert(rec.ID<<3 | int(f.phase)) {
			continue
		}
		f.count++
		if f.count == 1 || rec.Val > f.best.Val || (rec.Val == f.best.Val && rec.ID < f.best.ID) {
			f.best = rec
		}
		if rec.ID == k.id {
			f.hasSelf = true
		}
		if f == fwd {
			k.fresh = append(k.fresh, rec)
		}
	}
}

func (k *ksvNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	k.rounds++
	t, r := k.rounds, k.r
	fwd := k.forwarding(t)
	// Absorb within each phase's window (a record of phase p sent at the
	// window's last forwarding round arrives one round later, so the absorb
	// windows extend one round past the forwarding windows).
	for _, in := range inbox {
		switch msg := in.Msg.(type) {
		case *KnowledgeMessage:
			if t <= r {
				k.gather.absorb(msg)
			}
		case *ksvMessage:
			switch msg.Phase {
			case ksvPhaseCount:
				if t <= 3*r {
					k.absorb(&k.cFlood, fwd, msg.Recs...)
				}
			case ksvPhaseElect:
				if t <= 4*r {
					k.absorb(&k.elFlood, fwd, msg.Recs...)
				}
			case ksvPhaseUncov:
				if t <= 5*r {
					k.absorb(&k.unFlood, fwd, msg.Recs...)
				}
			case ksvPhaseDemand:
				if t <= 6*r {
					k.absorb(&k.ddFlood, fwd, msg.Recs...)
				}
			case ksvPhaseNominate:
				k.absorb(&k.noFlood, fwd, msg.Recs...)
			}
		}
	}
	// Phase boundaries: fold the completed window into the node state and
	// seed the next flood.
	switch t {
	case r:
		// The gatherer holds exactly the records of B_r(self).
		k.c = k.gather.known()
		// The floods ahead record B_2r once and parts of B_r four times;
		// 4c ids and two 2c-record send buffers fit most balls of sparse
		// graphs.
		k.seen.reserve(4 * k.c)
		buf := make([]ksvRecord, 4*k.c)
		k.fresh = buf[: 0 : 2*k.c]
		k.sent.setSpare(ksvMessage{Recs: buf[2*k.c : 2*k.c : 4*k.c]})
		k.absorb(&k.cFlood, fwd, ksvRecord{k.id, k.c})
	case 3 * r:
		// Elected iff (c, −id) is maximal over the 2r-ball; the own record
		// is in the flood, so the maximum is this vertex exactly then.
		k.elected = k.cFlood.best.ID == k.id
		if k.elected {
			k.inSet = true
			k.absorb(&k.elFlood, fwd, ksvRecord{k.id, 0})
		}
	case 4 * r:
		k.covered = k.elFlood.count > 0
		if !k.covered {
			k.absorb(&k.unFlood, fwd, ksvRecord{k.id, 0})
		}
	case 5 * r:
		// Demand = |B_r(self) ∩ U| (self included when uncovered).
		k.absorb(&k.ddFlood, fwd, ksvRecord{k.id, k.unFlood.count})
	case 6 * r:
		if !k.covered {
			// The best (c', −id) over B_r(self), own record included.
			if best := k.ddFlood.best.ID; best == k.id {
				k.inSet = true
			} else {
				k.absorb(&k.noFlood, fwd, ksvRecord{best, 0})
			}
		}
	}
	switch {
	case t < r:
		if msg := k.gather.flush(); msg != nil {
			ctx.Broadcast(msg)
		}
	case fwd != nil && len(k.fresh) > 0:
		slices.SortFunc(k.fresh, func(a, b ksvRecord) int { return cmp.Compare(a.ID, b.ID) })
		msg, recycled := k.sent.swap(ksvMessage{Phase: fwd.phase, Recs: k.fresh})
		k.fresh = recycled.Recs[:0]
		ctx.Broadcast(msg)
	}
}

func (k *ksvNode) Done() bool { return k.rounds >= 7*k.r }

// KSVResult is the outcome of the distributed constant-round algorithm.
type KSVResult struct {
	// Set is the computed distance-r dominating set, sorted.
	Set []int
	// NumElected is the size of the phase-1 elected set (a distance-2r
	// scattered set, hence a lower bound on the distance-r optimum).
	NumElected int
	// Stats is the simulator cost (7r rounds).
	Stats dist.Stats
}

// RunKSV executes the constant-round algorithm on the simulator.  The
// protocol only broadcasts, so it is legal in every model; the flooded
// neighborhood records make it a LOCAL-style algorithm (message sizes grow
// with the r-ball, tracked in Stats).
func RunKSV(g *graph.Graph, r int, model dist.Model, opts dist.Options) (*KSVResult, error) {
	if r < 1 {
		return nil, fmt.Errorf("distalgo: radius must be ≥ 1, got %d", r)
	}
	if g.N() == 0 {
		return &KSVResult{}, nil
	}
	nodes := make([]ksvNode, g.N())
	if opts.Phase == "" {
		opts.Phase = "kubsv"
	}
	runner := dist.NewRunner(g, model, opts)
	stats, err := runner.Run(func(v int) dist.Node {
		nodes[v] = ksvNode{id: v, r: r}
		return &nodes[v]
	})
	if err != nil {
		return nil, err
	}
	res := &KSVResult{Stats: stats}
	for v := range nodes {
		nd := &nodes[v]
		if nd.inSet || nd.noFlood.hasSelf {
			res.Set = append(res.Set, v)
		}
		if nd.elected {
			res.NumElected++
		}
	}
	return res, nil
}
