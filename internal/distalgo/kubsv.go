package distalgo

import (
	"fmt"
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

// ksvFlood is a hop-limited flooding accumulator: records are absorbed at
// most once and forwarded exactly once (the round windows in ksvNode bound
// the flooding radius).
type ksvFlood struct {
	known map[int]int
	fresh []ksvRecord
}

func (f *ksvFlood) add(id, val int) {
	if _, ok := f.known[id]; ok {
		return
	}
	f.known[id] = val
	f.fresh = append(f.fresh, ksvRecord{ID: id, Val: val})
}

func (f *ksvFlood) absorb(recs []ksvRecord) {
	for _, rec := range recs {
		f.add(rec.ID, rec.Val)
	}
}

func (f *ksvFlood) flush(phase uint8) (ksvMessage, bool) {
	if len(f.fresh) == 0 {
		return ksvMessage{}, false
	}
	out := f.fresh
	f.fresh = nil
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return ksvMessage{Phase: phase, Recs: out}, true
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

	gather  *ballGatherer
	c       int
	cFlood  ksvFlood // (id, c) within distance 2r
	elected bool
	elFlood ksvFlood // elected ids within distance r
	covered bool
	unFlood ksvFlood // uncovered ids within distance r
	ddFlood ksvFlood // (id, c') within distance r
	noFlood ksvFlood // nominated ids within distance r
	inSet   bool
}

func (k *ksvNode) Init(ctx *dist.Context) {
	self := VertexInfo{ID: k.id, Adj: append([]int(nil), ctx.Neighbors()...)}
	k.gather = newBallGatherer(self)
	for _, f := range []*ksvFlood{&k.cFlood, &k.elFlood, &k.unFlood, &k.ddFlood, &k.noFlood} {
		f.known = make(map[int]int)
	}
	ctx.Broadcast(k.gather.flush())
}

func (k *ksvNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	k.rounds++
	t, r := k.rounds, k.r
	// Absorb within each phase's window (a record of phase p sent at the
	// window's last forwarding round arrives one round later, so the absorb
	// windows extend one round past the forwarding windows below).
	for _, in := range inbox {
		switch msg := in.Msg.(type) {
		case KnowledgeMessage:
			if t <= r {
				k.gather.absorb(msg)
			}
		case ksvMessage:
			switch msg.Phase {
			case ksvPhaseCount:
				if t <= 3*r {
					k.cFlood.absorb(msg.Recs)
				}
			case ksvPhaseElect:
				if t <= 4*r {
					k.elFlood.absorb(msg.Recs)
				}
			case ksvPhaseUncov:
				if t <= 5*r {
					k.unFlood.absorb(msg.Recs)
				}
			case ksvPhaseDemand:
				if t <= 6*r {
					k.ddFlood.absorb(msg.Recs)
				}
			case ksvPhaseNominate:
				k.noFlood.absorb(msg.Recs)
			}
		}
	}
	// Phase boundaries: fold the completed window into the node state and
	// seed the next flood.
	switch t {
	case r:
		// The gatherer holds exactly the records of B_r(self).
		k.c = len(k.gather.know)
		k.cFlood.add(k.id, k.c)
	case 3 * r:
		k.elected = true
		for id, c := range k.cFlood.known {
			if c > k.c || (c == k.c && id < k.id) {
				k.elected = false
				break
			}
		}
		if k.elected {
			k.inSet = true
			k.elFlood.add(k.id, 0)
		}
	case 4 * r:
		k.covered = len(k.elFlood.known) > 0
		if !k.covered {
			k.unFlood.add(k.id, 0)
		}
	case 5 * r:
		// Demand = |B_r(self) ∩ U| (self included when uncovered).
		k.ddFlood.add(k.id, len(k.unFlood.known))
	case 6 * r:
		if !k.covered {
			best, bestD := k.id, k.ddFlood.known[k.id]
			for id, d := range k.ddFlood.known {
				if d > bestD || (d == bestD && id < best) {
					best, bestD = id, d
				}
			}
			if best == k.id {
				k.inSet = true
			} else {
				k.noFlood.add(best, 0)
			}
		}
	}
	// Forward the flood whose window is open (at most one broadcast per
	// round, so the protocol is also legal in CONGEST_BC).
	switch {
	case t < r:
		if msg := k.gather.flush(); msg != nil {
			ctx.Broadcast(msg)
		}
	case t < 3*r:
		k.broadcast(ctx, &k.cFlood, ksvPhaseCount)
	case t < 4*r:
		k.broadcast(ctx, &k.elFlood, ksvPhaseElect)
	case t < 5*r:
		k.broadcast(ctx, &k.unFlood, ksvPhaseUncov)
	case t < 6*r:
		k.broadcast(ctx, &k.ddFlood, ksvPhaseDemand)
	case t < 7*r:
		k.broadcast(ctx, &k.noFlood, ksvPhaseNominate)
	}
}

func (k *ksvNode) broadcast(ctx *dist.Context, f *ksvFlood, phase uint8) {
	if msg, ok := f.flush(phase); ok {
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
	nodes := make([]*ksvNode, g.N())
	if opts.Phase == "" {
		opts.Phase = "kubsv"
	}
	runner := dist.NewRunner(g, model, opts)
	stats, err := runner.Run(func(v int) dist.Node {
		nodes[v] = &ksvNode{id: v, r: r}
		return nodes[v]
	})
	if err != nil {
		return nil, err
	}
	res := &KSVResult{Stats: stats}
	for v, nd := range nodes {
		if _, nominated := nd.noFlood.known[v]; nd.inSet || nominated {
			res.Set = append(res.Set, v)
		}
		if nd.elected {
			res.NumElected++
		}
	}
	sort.Ints(res.Set)
	return res, nil
}
