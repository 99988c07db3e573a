package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Dynamic is a mutable graph built as a finalized CSR base plus a sorted
// delta overlay of pending edge insertions and deletions.  Mutations are
// applied in batches (Apply), cost O(|delta|·log deg), and never touch the
// base arrays, so a snapshot of the base stays valid.  Once the overlay
// grows past a configurable threshold it is compacted — merged into a fresh
// CSR base in one linear pass — keeping the overlay small relative to the
// graph no matter how many deltas arrive.
//
// Snapshot materializes the current topology as an immutable finalized
// *Graph, bit-identical to FromEdges of the same edge set; the snapshot is
// cached until the next effective mutation, so repeated queries between
// mutations share one CSR.  This is the property the engine's generation-
// keyed substrate cache relies on: a mutated-then-snapshotted graph yields
// byte-identical substrates to a fresh build of the final topology.
//
// All methods are safe for concurrent use.  Snapshots are immutable and may
// be read concurrently with further mutations.
type Dynamic struct {
	mu   sync.RWMutex
	base *Graph
	// n and m track the current (post-overlay) vertex and edge counts.
	n, m int
	// add and del are the overlay: per-vertex sorted neighbor rows of edges
	// inserted on top of (add) or deleted from (del) the base.  Invariants:
	// add rows are disjoint from base rows, del rows are subsets of base
	// rows, and both are symmetric (u in add[v] iff v in add[u]).
	add, del map[int32][]int32
	// overlay counts the half-edges across all add and del rows; compaction
	// triggers when it reaches compactAt.
	overlay   int
	compactAt int

	compactions uint64
	// snap caches the last materialized snapshot (nil when dirty; the base
	// itself when the overlay is empty).
	snap *Graph
}

// DefaultCompactionThreshold is the overlay half-edge count at which a
// Dynamic folds its delta into a fresh CSR base when no explicit threshold
// is configured.
const DefaultCompactionThreshold = 8192

// Mutation errors.
var (
	// ErrNegativeVertices is returned when Delta.AddVertices is negative.
	ErrNegativeVertices = errors.New("graph: negative vertex count in delta")
)

// Delta is one batch of mutations.  Vertices are added first, then removals
// are applied, then additions, so edges may reference the new vertices and a
// remove+add pair in one delta moves an edge.  Within each list entries
// apply in order; repeats are detected and counted, not errors.
type Delta struct {
	// AddVertices appends this many fresh isolated vertices (indices
	// n..n+AddVertices-1).
	AddVertices int `json:"add_vertices,omitempty"`
	// Add lists edges to insert.  Inserting an existing edge is a counted
	// no-op (DeltaResult.DuplicateAdds).
	Add [][2]int `json:"add,omitempty"`
	// Remove lists edges to delete.  Deleting an absent edge is a counted
	// no-op (DeltaResult.MissingRemoves).
	Remove [][2]int `json:"remove,omitempty"`
}

// Empty reports whether the delta contains no operations at all.
func (d Delta) Empty() bool {
	return d.AddVertices == 0 && len(d.Add) == 0 && len(d.Remove) == 0
}

// DeltaResult reports what one Apply actually changed.
type DeltaResult struct {
	// VerticesAdded echoes Delta.AddVertices.
	VerticesAdded int `json:"vertices_added"`
	// EdgesAdded is the number of edges that became present.
	EdgesAdded int `json:"edges_added"`
	// EdgesRemoved is the number of edges that became absent.
	EdgesRemoved int `json:"edges_removed"`
	// DuplicateAdds counts additions of already-present edges (including
	// repeats within the delta itself).
	DuplicateAdds int `json:"duplicate_adds,omitempty"`
	// MissingRemoves counts removals of absent edges.
	MissingRemoves int `json:"missing_removes,omitempty"`
	// Compacted reports whether this Apply folded the overlay into a fresh
	// CSR base.
	Compacted bool `json:"compacted,omitempty"`
}

// Changed reports whether the delta had any effect on the topology.
func (r DeltaResult) Changed() bool {
	return r.VerticesAdded > 0 || r.EdgesAdded > 0 || r.EdgesRemoved > 0
}

// DynamicStats is a point-in-time snapshot of a Dynamic's internals.
type DynamicStats struct {
	// N and M are the current vertex and edge counts.
	N int `json:"n"`
	M int `json:"m"`
	// PendingDelta is the overlay size in half-edges (0 right after a
	// compaction).
	PendingDelta int `json:"pending_delta"`
	// CompactionThreshold is the overlay size that triggers compaction.
	CompactionThreshold int `json:"compaction_threshold"`
	// Compactions counts overlay-into-base folds since construction.
	Compactions uint64 `json:"compactions"`
}

// NewDynamic wraps g (finalized in place if it is not already, on a private
// clone so the caller's graph is never mutated) as the base of a mutable
// graph.  compactAt is the overlay half-edge count that triggers compaction;
// 0 selects DefaultCompactionThreshold.
func NewDynamic(g *Graph, compactAt int) *Dynamic {
	if g == nil {
		g = New(0)
	}
	if !g.Finalized() {
		g = g.Clone()
		g.Finalize()
	}
	if compactAt <= 0 {
		compactAt = DefaultCompactionThreshold
	}
	return &Dynamic{
		base:      g,
		n:         g.N(),
		m:         g.M(),
		add:       make(map[int32][]int32),
		del:       make(map[int32][]int32),
		compactAt: compactAt,
		snap:      g,
	}
}

// Stats returns the current mutation counters.
func (d *Dynamic) Stats() DynamicStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return DynamicStats{
		N:                   d.n,
		M:                   d.m,
		PendingDelta:        d.overlay,
		CompactionThreshold: d.compactAt,
		Compactions:         d.compactions,
	}
}

// Apply validates and applies one mutation batch.  Validation is atomic: on
// error nothing is applied.  Removals run before additions (see Delta).
// When the overlay reaches the compaction threshold it is folded into a
// fresh CSR base before Apply returns.
func (d *Dynamic) Apply(delta Delta) (DeltaResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	if delta.AddVertices < 0 {
		return DeltaResult{}, fmt.Errorf("%w: %d", ErrNegativeVertices, delta.AddVertices)
	}
	// Compare against the headroom, not the sum: n + AddVertices could wrap
	// negative on 64-bit overflow and sneak past a sum-side check.
	if delta.AddVertices > math.MaxInt32-d.n {
		return DeltaResult{}, fmt.Errorf("graph: delta grows the graph past the int32 CSR limit (n=%d, add %d)", d.n, delta.AddVertices)
	}
	// Same guard for edges (worst case: every add is new): the CSR layout
	// indexes 2m adjacency entries with int32 offsets, and rejecting here
	// keeps the later materialization from panicking on a graph Apply's
	// atomic-validation contract should never have admitted.
	if len(delta.Add) > math.MaxInt32/2-d.m {
		return DeltaResult{}, fmt.Errorf("graph: delta grows the graph past the int32 CSR limit (m=%d, add %d edges)", d.m, len(delta.Add))
	}
	newN := d.n + delta.AddVertices
	for _, list := range [2][][2]int{delta.Remove, delta.Add} {
		for _, e := range list {
			u, v := e[0], e[1]
			if u < 0 || u >= newN || v < 0 || v >= newN {
				return DeltaResult{}, fmt.Errorf("%w: {%d,%d} with n=%d", ErrVertexRange, u, v, newN)
			}
			if u == v {
				return DeltaResult{}, fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
			}
		}
	}

	res := DeltaResult{VerticesAdded: delta.AddVertices}
	d.n = newN
	for _, e := range delta.Remove {
		if d.removeEdgeLocked(int32(e[0]), int32(e[1])) {
			res.EdgesRemoved++
		} else {
			res.MissingRemoves++
		}
	}
	for _, e := range delta.Add {
		if d.addEdgeLocked(int32(e[0]), int32(e[1])) {
			res.EdgesAdded++
		} else {
			res.DuplicateAdds++
		}
	}
	if res.Changed() {
		d.snap = nil
	}
	if d.overlay >= d.compactAt {
		d.compactLocked()
		res.Compacted = true
	}
	return res, nil
}

// addEdgeLocked makes {u, v} present; false if it already was.
func (d *Dynamic) addEdgeLocked(u, v int32) bool {
	inBase := int(u) < d.base.N() && d.base.HasEdge(int(u), int(v))
	if inBase {
		// Present unless overlaid as deleted; adding un-deletes.
		if !d.overlayDelete(d.del, u, v) {
			return false
		}
		d.m++
		return true
	}
	if !d.overlayInsert(d.add, u, v) {
		return false
	}
	d.m++
	return true
}

// removeEdgeLocked makes {u, v} absent; false if it already was.
func (d *Dynamic) removeEdgeLocked(u, v int32) bool {
	inBase := int(u) < d.base.N() && d.base.HasEdge(int(u), int(v))
	if inBase {
		if !d.overlayInsert(d.del, u, v) {
			return false // already deleted
		}
		d.m--
		return true
	}
	if !d.overlayDelete(d.add, u, v) {
		return false // never present
	}
	d.m--
	return true
}

// overlayInsert inserts v into rows[u] and u into rows[v] (sorted); false if
// already present.  Adjusts the overlay size.
func (d *Dynamic) overlayInsert(rows map[int32][]int32, u, v int32) bool {
	i, ok := sortedIndex(rows[u], v)
	if ok {
		return false
	}
	rows[u] = slices.Insert(rows[u], i, v)
	j, _ := sortedIndex(rows[v], u)
	rows[v] = slices.Insert(rows[v], j, u)
	d.overlay += 2
	return true
}

// overlayDelete removes v from rows[u] and u from rows[v]; false if absent.
func (d *Dynamic) overlayDelete(rows map[int32][]int32, u, v int32) bool {
	i, ok := sortedIndex(rows[u], v)
	if !ok {
		return false
	}
	rows[u] = slices.Delete(rows[u], i, i+1)
	if len(rows[u]) == 0 {
		delete(rows, u)
	}
	j, _ := sortedIndex(rows[v], u)
	rows[v] = slices.Delete(rows[v], j, j+1)
	if len(rows[v]) == 0 {
		delete(rows, v)
	}
	d.overlay -= 2
	return true
}

// Snapshot returns the current topology as an immutable finalized *Graph,
// bit-identical to FromEdges of the same edge set.  The snapshot is cached:
// repeated calls between mutations return the same *Graph (the base itself
// when there is no pending overlay).
func (d *Dynamic) Snapshot() *Graph {
	d.mu.RLock()
	snap := d.snap
	d.mu.RUnlock()
	if snap != nil {
		return snap
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.snap == nil {
		d.snap = d.materializeLocked()
	}
	return d.snap
}

func (d *Dynamic) compactLocked() {
	if d.snap == nil {
		d.snap = d.materializeLocked()
	}
	d.base = d.snap
	clear(d.add)
	clear(d.del)
	d.overlay = 0
	d.compactions++
}

// materializeLocked builds the merged CSR in one linear pass: per vertex,
// the (sorted) base row minus the del row, merged with the add row.
func (d *Dynamic) materializeLocked() *Graph {
	n := d.n
	baseN := d.base.N()
	off := make([]int32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		off[v] = int32(total)
		deg := len(d.add[int32(v)]) - len(d.del[int32(v)])
		if v < baseN {
			deg += d.base.Degree(v)
		}
		total += deg
	}
	if total > math.MaxInt32 {
		panic(fmt.Sprintf("graph: Dynamic snapshot: %d adjacency entries overflow the int32 CSR offsets", total))
	}
	off[n] = int32(total)
	tgt := make([]int32, total)
	for v := 0; v < n; v++ {
		var baseRow []int32
		if v < baseN {
			baseRow = d.base.Neighbors(v)
		}
		row := mergeRow(tgt[off[v]:off[v]:off[v+1]], baseRow, d.del[int32(v)], d.add[int32(v)])
		if len(row) != int(off[v+1]-off[v]) {
			panic("graph: Dynamic snapshot: row length mismatch (overlay invariant broken)")
		}
	}
	return &Graph{n: n, m: total / 2, off: off, tgt: tgt, finalized: true}
}

// mergeRow appends (base \ del) ∪ add to buf in sorted order.  base, del and
// add must each be sorted; del ⊆ base and add ∩ base = ∅.
func mergeRow(buf, base, del, add []int32) []int32 {
	di := 0
	for _, w := range base {
		for di < len(del) && del[di] < w {
			di++
		}
		if di < len(del) && del[di] == w {
			continue
		}
		for len(add) > 0 && add[0] < w {
			buf = append(buf, add[0])
			add = add[1:]
		}
		buf = append(buf, w)
	}
	return append(buf, add...)
}

// sortedIndex returns the insertion index of w in the sorted row and whether
// it is already present.
func sortedIndex(row []int32, w int32) (int, bool) {
	return slices.BinarySearch(row, w)
}
