package order

import (
	"slices"

	"bedom/internal/graph"
)

// Digraph is a directed graph with arc lengths, used for the distance-
// truncated transitive–fraternal augmentations of Nešetřil and Ossona de
// Mendez.  An arc v→u with length ℓ certifies that there is a path of length
// ℓ in the original graph from v to u; arcs always point from larger to
// smaller vertices with respect to the orientation's underlying intuition
// ("point toward the vertices you may be weakly reaching").
//
// Arcs are stored as flat per-vertex slices sorted by head vertex, so HasArc
// is a binary search and the augmentation rounds merge whole arc batches in linear passes instead
// of hammering per-vertex hash maps.
type Digraph struct {
	n   int
	out [][]Arc // out[v] = arcs v→·, sorted by To, one arc per head
}

// arcIndex returns the position of head u in the sorted arc slice arcs, or
// the insertion point if absent.
func arcIndex(arcs []Arc, u int) int {
	lo, hi := 0, len(arcs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arcs[mid].To < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// HasArc reports whether the arc v→u exists.
func (d *Digraph) HasArc(v, u int) bool {
	arcs := d.out[v]
	i := arcIndex(arcs, u)
	return i < len(arcs) && arcs[i].To == u
}

// MaxOutDegree returns the maximum out-degree.
func (d *Digraph) MaxOutDegree() int {
	max := 0
	for v := 0; v < d.n; v++ {
		if len(d.out[v]) > max {
			max = len(d.out[v])
		}
	}
	return max
}

// Arc is a directed arc endpoint with the length of the underlying path.
type Arc struct {
	To     int
	Length int
}

// UnderlyingWorkers returns the underlying undirected graph of the digraph
// (arc directions and lengths dropped, parallel arcs merged).  Arcs are
// appended without membership probes; Finalize collapses the duplicates,
// with the given worker bound for its passes (0 = GOMAXPROCS).
func (d *Digraph) UnderlyingWorkers(workers int) *graph.Graph {
	deg := make([]int32, d.n)
	for v := 0; v < d.n; v++ {
		deg[v] += int32(len(d.out[v]))
		for _, a := range d.out[v] {
			deg[a.To]++
		}
	}
	g := graph.NewWithDegreeCap(d.n, deg)
	for v := 0; v < d.n; v++ {
		for _, a := range d.out[v] {
			// Error cannot occur: v != a.To and both are in range.
			_ = g.AddEdgeLazy(v, a.To)
		}
	}
	g.FinalizeWorkers(workers)
	return g
}

// OrientByOrder returns the orientation of g in which every edge points from
// the larger endpoint to the smaller endpoint with respect to o.  With a
// degeneracy-style order the maximum out-degree equals the back-degree of
// the order.
func OrientByOrder(g *graph.Graph, o *Order) *Digraph {
	n := g.N()
	d := &Digraph{n: n, out: make([][]Arc, n)}
	// One arena holds every arc (the orientation keeps exactly one arc per
	// edge); rows are carved out of it per vertex.
	arena := make([]Arc, 0, g.M())
	for v := 0; v < n; v++ {
		start := len(arena)
		for _, w := range g.Neighbors(v) {
			if o.pos[w] < o.pos[v] {
				arena = append(arena, Arc{To: int(w), Length: 1})
			}
		}
		if start == len(arena) {
			continue
		}
		row := arena[start:len(arena):len(arena)]
		if !g.Finalized() {
			// Finalized adjacency rows are sorted by vertex id already.
			slices.SortFunc(row, func(a, b Arc) int { return a.To - b.To })
		}
		d.out[v] = row
	}
	return d
}

// AugmentationResult captures one transitive–fraternal augmentation round.
type AugmentationResult struct {
	// TransitiveArcs is the number of new transitive arcs added.
	TransitiveArcs int
	// FraternalEdges is the number of new fraternal edges added (after
	// orientation they become arcs).
	FraternalEdges int
	// MaxOutDegree is the maximum out-degree after the round.
	MaxOutDegree int
}

// lenEdge is a candidate arc/edge u→v (or {u, v}) with a path length.
// int32 fields keep the scan's candidate buffers — the largest transient
// allocation of an augmentation round — at 12 bytes per entry.
type lenEdge struct {
	u, v, length int32
}

// AugmentOnceWorkers performs one distance-truncated transitive–fraternal
// augmentation round on d, adding
//
//   - a transitive arc x→z of length ℓ₁+ℓ₂ for every pair of arcs x→y (ℓ₁)
//     and y→z (ℓ₂), and
//   - a fraternal edge {x, z} of length ℓ₁+ℓ₂ for every pair of arcs y→x (ℓ₁)
//     and y→z (ℓ₂) with a common tail y,
//
// whenever the combined length is at most maxLen.  Fraternal edges are
// oriented by a degeneracy ordering of the graph they form, which keeps the
// out-degree growth bounded on bounded expansion classes (Nešetřil–Ossona de
// Mendez, "Grad and classes with bounded expansion II").
//
// The candidate-generation scan is fanned out over the given number of
// workers (0 = GOMAXPROCS).  The result is identical for every worker count:
// workers scan contiguous vertex blocks, their candidate lists are
// concatenated in block order (recovering the sequential scan order
// exactly), and the arc merge is sequential.
func (d *Digraph) AugmentOnceWorkers(maxLen, workers int) AugmentationResult {
	var res AugmentationResult

	// In-arc lists in CSR layout: in[u] = {(v, ℓ) : v→u}, tails ascending.
	indeg := make([]int32, d.n)
	total := 0
	for v := 0; v < d.n; v++ {
		for _, a := range d.out[v] {
			indeg[a.To]++
		}
		total += len(d.out[v])
	}
	inOff := make([]int32, d.n+1)
	sum := int32(0)
	for u := 0; u < d.n; u++ {
		inOff[u] = sum
		sum += indeg[u]
	}
	inOff[d.n] = sum
	inArcs := make([]Arc, total)
	cursor := make([]int32, d.n)
	copy(cursor, inOff[:d.n])
	for v := 0; v < d.n; v++ {
		for _, a := range d.out[v] {
			inArcs[cursor[a.To]] = Arc{To: v, Length: a.Length}
			cursor[a.To]++
		}
	}

	// Candidate scan: read-only on d, so vertex blocks proceed in parallel
	// with private output buffers.
	workers = graph.ResolveWorkers(workers, d.n)
	frat := make([][]lenEdge, workers)
	trans := make([][]lenEdge, workers)
	graph.ParallelBlocks(d.n, workers, func(k, lo, hi int) {
		var fr, tr []lenEdge
		for y := lo; y < hi; y++ {
			outs := d.out[y]
			// Fraternal pairs: common tail y, heads a and b.
			for i := 0; i < len(outs); i++ {
				for j := i + 1; j < len(outs); j++ {
					a, b := outs[i], outs[j]
					l := a.Length + b.Length
					if l > maxLen {
						continue
					}
					if d.HasArc(a.To, b.To) || d.HasArc(b.To, a.To) {
						continue
					}
					fr = append(fr, lenEdge{int32(a.To), int32(b.To), int32(l)})
				}
			}
			// Transitive: x→y (in-arc) and y→z (out-arc) gives x→z.
			for _, xa := range inArcs[inOff[y]:inOff[y+1]] {
				for _, za := range outs {
					if xa.To == za.To {
						continue
					}
					l := xa.Length + za.Length
					if l > maxLen {
						continue
					}
					if d.HasArc(xa.To, za.To) {
						continue
					}
					tr = append(tr, lenEdge{int32(xa.To), int32(za.To), int32(l)})
				}
			}
		}
		frat[k], trans[k] = fr, tr
	})
	fraternal := concat(frat)

	res.TransitiveArcs = d.applyArcParts(trans, workers)

	// Orient fraternal edges: build the fraternal graph, compute a degeneracy
	// order and point each edge toward the smaller endpoint in that order.
	if len(fraternal) > 0 {
		fdeg := make([]int32, d.n)
		for _, e := range fraternal {
			fdeg[e.u]++
			fdeg[e.v]++
		}
		fg := graph.NewWithDegreeCap(d.n, fdeg)
		for _, e := range fraternal {
			_ = fg.AddEdgeLazy(int(e.u), int(e.v))
		}
		fg.FinalizeWorkers(workers)
		fo, _ := FromDegeneracy(fg)
		oriented := dedupEdges(fraternal)
		res.FraternalEdges = len(oriented)
		for i, e := range oriented {
			if fo.Less(int(e.u), int(e.v)) {
				oriented[i] = lenEdge{e.v, e.u, e.length}
			}
		}
		d.applyArcs(oriented, workers)
	}
	res.MaxOutDegree = d.MaxOutDegree()
	return res
}

// dedupEdges keeps one entry per undirected pair {u, v}: the first
// occurrence in list order (whose length therefore wins, matching the
// sequential application order).
func dedupEdges(edges []lenEdge) []lenEdge {
	type keyed struct {
		a, b, idx int32
	}
	keys := make([]keyed, len(edges))
	for i, e := range edges {
		a, b := e.u, e.v
		if a > b {
			a, b = b, a
		}
		keys[i] = keyed{a, b, int32(i)}
	}
	slices.SortFunc(keys, func(x, y keyed) int {
		if x.a != y.a {
			return int(x.a - y.a)
		}
		if x.b != y.b {
			return int(x.b - y.b)
		}
		return int(x.idx - y.idx)
	})
	picked := make([]int32, 0, len(keys))
	for i, k := range keys {
		if i > 0 && k.a == keys[i-1].a && k.b == keys[i-1].b {
			continue
		}
		picked = append(picked, k.idx)
	}
	slices.Sort(picked) // restore first-occurrence order
	out := make([]lenEdge, len(picked))
	for i, idx := range picked {
		out[i] = edges[idx]
	}
	return out
}

// applyArcs merges the candidate arcs into the digraph and returns how many
// of them were new (counting each head once per tail).  Duplicate
// candidates collapse to their minimum length; existing arcs keep the
// minimum of old and new length.
func (d *Digraph) applyArcs(edges []lenEdge, workers int) (added int) {
	return d.applyArcParts([][]lenEdge{edges}, workers)
}

// applyArcParts is applyArcs over per-worker candidate buffers, consumed in
// block order without concatenating them first.  Candidates are bucketed by
// tail with a counting sort (cheaper than a global comparison sort of
// 24-byte structs), then each tail's bucket is sorted by (head, length) and
// merged into the tail's arc slice in one linear pass.
func (d *Digraph) applyArcParts(parts [][]lenEdge, workers int) (added int) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return 0
	}
	cnt := make([]int32, d.n+1)
	for _, p := range parts {
		for i := range p {
			cnt[p[i].u]++
		}
	}
	off := make([]int32, d.n+1)
	sum := int32(0)
	for u := 0; u < d.n; u++ {
		off[u] = sum
		sum += cnt[u]
		cnt[u] = off[u] // repurpose as the scatter cursor
	}
	off[d.n] = sum
	buf := make([]lenEdge, total)
	for _, p := range parts {
		for i := range p {
			buf[cnt[p[i].u]] = p[i]
			cnt[p[i].u]++
		}
	}
	// Per-tail merges touch disjoint arc slices, so they fan out across
	// workers; the new-arc counts are summed in block order (order-
	// independent integer addition, so the result stays deterministic).
	// Each worker writes its merged slices into one arena allocation sized
	// by the upper bound |old| + |candidates| per tail, so a round costs one
	// allocation per worker instead of one per touched vertex.
	workers = graph.ResolveWorkers(workers, d.n)
	addedPer := make([]int, workers)
	graph.ParallelBlocks(d.n, workers, func(k, lo, hi int) {
		bound := 0
		for u := lo; u < hi; u++ {
			if off[u] != off[u+1] {
				bound += int(off[u+1]-off[u]) + len(d.out[u])
			}
		}
		if bound == 0 {
			return
		}
		arena := make([]Arc, 0, bound)
		local := 0
		for u := lo; u < hi; u++ {
			if off[u] == off[u+1] {
				continue
			}
			group := buf[off[u]:off[u+1]]
			slices.SortFunc(group, func(a, b lenEdge) int {
				if a.v != b.v {
					return int(a.v - b.v)
				}
				return int(a.length - b.length)
			})
			start := len(arena)
			var nnew int
			arena, nnew = mergeArcsInto(arena, d.out[u], group)
			d.out[u] = arena[start:len(arena):len(arena)]
			local += nnew
		}
		addedPer[k] = local
	})
	for _, a := range addedPer {
		added += a
	}
	return added
}

// mergeArcsInto merges news (sorted by head, duplicates adjacent with
// minimum length first) with the sorted arc slice old in one linear pass,
// appending the merged run to dst and returning it with the count of heads
// that were not present in old.
func mergeArcsInto(dst []Arc, old []Arc, news []lenEdge) ([]Arc, int) {
	added := 0
	k := 0
	for i := 0; i < len(news); {
		to, l := int(news[i].v), int(news[i].length)
		for i < len(news) && int(news[i].v) == to {
			i++
		}
		for k < len(old) && old[k].To < to {
			dst = append(dst, old[k])
			k++
		}
		if k < len(old) && old[k].To == to {
			if l > old[k].Length {
				l = old[k].Length
			}
			dst = append(dst, Arc{To: to, Length: l})
			k++
		} else {
			dst = append(dst, Arc{To: to, Length: l})
			added++
		}
	}
	dst = append(dst, old[k:]...)
	return dst, added
}

// TFAugmentationWorkers runs `depth` augmentation rounds with the given
// length cap on the degeneracy orientation of g and returns the augmented
// digraph together with the per-round results.  Each round's scan is fanned
// out over the given number of workers (0 = GOMAXPROCS); the augmented
// digraph is identical for every worker count.
func TFAugmentationWorkers(g *graph.Graph, depth, maxLen, workers int) (*Digraph, []AugmentationResult) {
	base, _ := FromDegeneracy(g)
	d := OrientByOrder(g, base)
	results := make([]AugmentationResult, 0, depth)
	for i := 0; i < depth; i++ {
		results = append(results, d.AugmentOnceWorkers(maxLen, workers))
	}
	return d, results
}
