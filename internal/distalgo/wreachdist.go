package distalgo

import (
	"cmp"
	"fmt"
	"slices"

	"bedom/internal/dist"
	"bedom/internal/graph"
	"bedom/internal/order"
)

// PathsMessage is the wire format of Algorithm 4: a set of paths, each path
// a vertex sequence starting at the weakly reachable target and ending at
// the broadcasting vertex.  The paths are spans of the sender's path arena
// (see wreachNode), so a message carries no pointer per path.  Its size is
// the total number of vertex ids carried.
type PathsMessage struct {
	arena []int
	spans []pathSpan
}

// pathSpan locates one path in an arena: arena[off : off+n].
type pathSpan struct{ off, n int32 }

// Words implements dist.Message.
func (m *PathsMessage) Words() int {
	w := 0
	for _, s := range m.spans {
		w += int(s.n)
	}
	return w
}

// path returns the i-th path of m.  It must not be modified.
func (m *PathsMessage) path(i int) []int {
	s := m.spans[i]
	return m.arena[s.off : s.off+s.n : s.off+s.n]
}

// wreachNode implements Algorithm 4 (WReachDist) of the paper.  Every vertex
// w maintains, for each vertex u with sid(u) < sid(w) discovered so far, the
// best known path from u to w (shortest, ties broken lexicographically by
// super-ids).  In each round it broadcasts the paths it improved, extended by
// itself, provided they are still short enough to be extended further.
type wreachNode struct {
	id      int
	pos     []int // pos[v] = super-id (position in L) of vertex v
	horizon int

	// entries holds, sorted by target id, the best path from every
	// discovered target to this vertex.  Entries hold no pointers, so
	// inserting one moves plain memory.
	entries []wreachEntry
	// arena holds every adopted path (target first, this vertex last),
	// appended and never written again: a sent path stays valid for its
	// receivers even after a later append moves the arena, and a replaced
	// path simply stays behind.
	arena     []int
	sent      sendBuffers[PathsMessage]
	spans     []pathSpan // the paths of the next broadcast
	roundsRun int
}

// wreachEntry is the best known path from one target, stamped with the
// round in which it was adopted (0 = Init).
type wreachEntry struct {
	target  int32
	adopted int32
	pathSpan
}

// path returns the stored path of e.
func (w *wreachNode) path(e wreachEntry) []int {
	return w.arena[e.off : e.off+e.n : e.off+e.n]
}

func (w *wreachNode) Init(ctx *dist.Context) {
	// Round 0: broadcast the trivial path consisting of the own super-id.
	self := w.adopt(int32(w.id), nil)
	w.entries = append(w.entries, self)
	w.broadcast(ctx, append(w.spans, self.pathSpan))
}

func (w *wreachNode) Round(ctx *dist.Context, inbox []dist.Inbound) {
	w.roundsRun++
	for _, in := range inbox {
		msg, ok := in.Msg.(*PathsMessage)
		if !ok {
			continue
		}
		for i := range msg.spans {
			w.consider(msg.path(i))
		}
	}
	// Broadcast the paths adopted this round that can still grow (length <
	// horizon), in target order.
	spans := w.spans
	for _, e := range w.entries {
		if int(e.adopted) == w.roundsRun && int(e.n)-1 < w.horizon {
			spans = append(spans, e.pathSpan)
		}
	}
	if len(spans) > 0 {
		w.broadcast(ctx, spans)
	}
}

func (w *wreachNode) broadcast(ctx *dist.Context, spans []pathSpan) {
	msg, recycled := w.sent.swap(PathsMessage{arena: w.arena, spans: spans})
	w.spans = recycled.spans[:0]
	ctx.Broadcast(msg)
}

// consider examines a received path (target … sender) and adopts its
// extension by this vertex if it is an improvement.
func (w *wreachNode) consider(p []int) {
	if len(p) == 0 {
		return
	}
	target := p[0]
	// Keep only paths from strictly smaller vertices (line 8 of Algorithm 4).
	if w.pos[target] >= w.pos[w.id] {
		return
	}
	if len(p) >= w.horizon+1 {
		// Extending would exceed the horizon.
		return
	}
	// Avoid walks that revisit this vertex.
	for _, x := range p {
		if x == w.id {
			return
		}
	}
	i, have := w.find(target)
	if have {
		if w.extensionBetter(p, w.path(w.entries[i])) {
			w.entries[i] = w.adopt(int32(target), p)
		}
		return
	}
	w.entries = slices.Insert(w.entries, i, w.adopt(int32(target), p))
}

// find returns the index of target's entry, or the index where it belongs.
func (w *wreachNode) find(target int) (int, bool) {
	lo, hi := 0, len(w.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if int(w.entries[m].target) < target {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(w.entries) && int(w.entries[lo].target) == target
}

// extensionBetter reports whether p extended by this vertex is strictly
// better than the stored path b: shorter, or of equal length and
// lexicographically smaller with respect to super-ids.
func (w *wreachNode) extensionBetter(p, b []int) bool {
	if len(p)+1 != len(b) {
		return len(p)+1 < len(b)
	}
	for i := range p {
		if w.pos[p[i]] != w.pos[b[i]] {
			return w.pos[p[i]] < w.pos[b[i]]
		}
	}
	// Both paths end at this vertex.
	return false
}

// adopt appends p followed by this vertex to the arena and returns the
// entry for it, stamped with the current round.
func (w *wreachNode) adopt(target int32, p []int) wreachEntry {
	off := len(w.arena)
	w.arena = append(append(w.arena, p...), w.id)
	return wreachEntry{target: target, adopted: int32(w.roundsRun), pathSpan: pathSpan{int32(off), int32(len(p) + 1)}}
}

func (w *wreachNode) Done() bool {
	// After `horizon` exchange rounds every weakly reachable vertex within
	// the horizon has been discovered; a couple of extra quiet rounds let the
	// last adoptions settle before the runner detects global quiescence.
	return w.roundsRun >= w.horizon
}

// WReachDistResult is the output of the distributed weak-reachability
// computation.
type WReachDistResult struct {
	// Witnesses[w] lists, for each weakly reachable vertex (including w
	// itself), the routing path stored at w, sorted by the super-id of the
	// target (so entry 0 is the witness to min WReach).  The paths are
	// oriented from w to the target, matching order.PathTo.
	Witnesses [][]order.PathTo
	// Stats is the simulator cost.
	Stats dist.Stats
}

// RunWReachDist runs Algorithm 4 with the given order (super-ids) and
// horizon (2r for covers/dominating sets, 2r+1 for the connected variant) in
// the given model.  CONGEST_BC suffices: every vertex only broadcasts.
func RunWReachDist(g *graph.Graph, o *order.Order, horizon int, model dist.Model, opts dist.Options) (*WReachDistResult, error) {
	if horizon < 1 {
		return nil, fmt.Errorf("distalgo: horizon must be ≥ 1, got %d", horizon)
	}
	pos := o.Positions()
	nodes := make([]wreachNode, g.N())
	if opts.Phase == "" {
		opts.Phase = "wreach"
	}
	// Every node starts with room for a few entries, paths and sent spans,
	// carved from run-wide slabs; only nodes that outgrow them allocate.
	// The room grows with the horizon up to 5 (r = 2 for the connected
	// variant), so a long horizon does not preallocate for every node.
	h := min(horizon, 5)
	entryCap, arenaCap, spanCap := 4*h, 8*(h+1), 2*h
	entrySlab := make([]wreachEntry, g.N()*entryCap)
	arenaSlab := make([]int, g.N()*arenaCap)
	spanSlab := make([]pathSpan, 2*g.N()*spanCap)
	runner := dist.NewRunner(g, model, opts)
	stats, err := runner.Run(func(v int) dist.Node {
		e, a, s := v*entryCap, v*arenaCap, 2*v*spanCap
		nd := &nodes[v]
		*nd = wreachNode{
			id: v, pos: pos, horizon: horizon,
			entries: entrySlab[e : e : e+entryCap],
			arena:   arenaSlab[a : a : a+arenaCap],
			spans:   spanSlab[s : s : s+spanCap],
		}
		nd.sent.setSpare(PathsMessage{spans: spanSlab[s+spanCap : s+spanCap : s+2*spanCap]})
		return nd
	})
	if err != nil {
		return nil, fmt.Errorf("distalgo: WReachDist failed: %w", err)
	}
	// Every witness and its path are carved from two run-wide slabs.
	entries, words := 0, 0
	for v := range nodes {
		entries += len(nodes[v].entries)
		for _, e := range nodes[v].entries {
			words += int(e.n)
		}
	}
	wits := make([]order.PathTo, 0, entries)
	paths := make([]int, words)
	res := &WReachDistResult{Witnesses: make([][]order.PathTo, g.N()), Stats: stats}
	for v := range nodes {
		nd := &nodes[v]
		slices.SortFunc(nd.entries, func(a, b wreachEntry) int {
			return cmp.Compare(pos[a.target], pos[b.target])
		})
		lo := len(wits)
		for _, e := range nd.entries {
			// Stored paths run target → … → v; PathTo wants v → … → target.
			stored := nd.path(e)
			rev := paths[:len(stored):len(stored)]
			paths = paths[len(stored):]
			for i, x := range stored {
				rev[len(stored)-1-i] = x
			}
			wits = append(wits, order.PathTo{Target: int(e.target), Path: rev})
		}
		res.Witnesses[v] = wits[lo:len(wits):len(wits)]
	}
	return res, nil
}

// MinTarget returns, for a witness list and radius r, the witness with the
// L-least target among those with path length ≤ r (the dominator elected by
// Theorem 9), relying on the list being sorted by target super-id.
func MinTarget(wits []order.PathTo, r int) (order.PathTo, bool) {
	for _, pt := range wits {
		if len(pt.Path)-1 <= r {
			return pt, true
		}
	}
	return order.PathTo{}, false
}
