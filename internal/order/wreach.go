package order

import "bedom/internal/graph"

// WReachSets computes, for every vertex w, the weak r-reachability set
// WReach_r[G, L, w] = { u ≤_L w : there is a path of length ≤ r from w to u
// whose minimum vertex (w.r.t. L) is u }.
//
// The returned slice is indexed by vertex; each set is sorted by L-position
// (so element 0 is min WReach_r[G, L, w]) and always contains w itself.  The
// per-vertex sets are full-capacity subslices of one shared flat buffer;
// treat them as read-only (appending reallocates, mutating in place corrupts
// the substrate for every other consumer).
//
// The computation mirrors Algorithm 3 of the paper run from every vertex:
// for each vertex u, a breadth-first search restricted to vertices ≥_L u and
// depth r discovers exactly the vertices w with u ∈ WReach_r[G, L, w].
// Total time is O(Σ_u |X_u| · wcol) which is linear for every fixed r on a
// bounded expansion class, and the n source searches are independent, so
// they shard across workers (see WReachSetsWorkers).
func WReachSets(g *graph.Graph, o *Order, r int) [][]int {
	return WReachSetsWorkers(g, o, r, 0)
}

// wreachShard is one worker's share of a WReachSets computation: the
// discovered vertices ws, segmented per source (ends[j] is the end offset
// of the block's j'th source, so the source itself is recoverable from the
// segment index — no second per-pair array), and the per-vertex
// contribution counts, later repurposed as write cursors.
type wreachShard struct {
	lo   int // first source position of the block
	ws   []int32
	ends []int32
	cnt  []int
}

// WReachSetsWorkers is WReachSets fanned out over the given number of
// workers (0 = GOMAXPROCS).  Sources are sharded by contiguous L-position
// blocks with per-worker BFS scratch; the per-worker pair buffers are merged
// by a deterministic count-and-fill pass, so the output is identical for
// every worker count — no per-set sort is needed because sources are visited
// in L-order (each set's elements arrive already sorted by position).
func WReachSetsWorkers(g *graph.Graph, o *Order, r, workers int) [][]int {
	n := g.N()
	sets := make([][]int, n)
	if n == 0 {
		return sets
	}
	workers = graph.ResolveWorkers(workers, n)
	if n < graph.MinParallelVertices {
		workers = 1
	}
	pos := o.pos
	perm := o.perm
	r32 := int32(r)

	// Position-relabeled CSR (the paper's Algorithm 2, SortLists): the
	// vertex at position i has neighbor positions prows[poff[i]:poff[i+1]].
	// The restriction "only vertices ≥_L u" becomes a plain integer
	// comparison with no indirection, and the restricted BFS touches a
	// contiguous position range.
	poff := make([]int32, n+1)
	for i := 0; i < n; i++ {
		poff[i+1] = poff[i] + int32(g.Degree(perm[i]))
	}
	ptgt := make([]int32, poff[n])
	graph.ParallelBlocks(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c := poff[i]
			for _, wn := range g.Neighbors(perm[i]) {
				ptgt[c] = int32(pos[wn])
				c++
			}
		}
	})

	// All vertices below are position labels until the final fill maps them
	// back through perm.
	shards := make([]wreachShard, workers)
	graph.ParallelBlocks(n, workers, func(k, lo, hi int) {
		cnt := make([]int, n)
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = -1
		}
		ws := make([]int32, 0, 8*(hi-lo))
		ends := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			// BFS from position i restricted to positions ≥ i, depth ≤ r;
			// the tail of ws doubles as the FIFO queue (every position
			// enters it once).
			head := len(ws)
			ws = append(ws, int32(i))
			dist[i] = 0
			i32 := int32(i)
			for ; head < len(ws); head++ {
				x := ws[head]
				if dist[x] >= r32 {
					continue
				}
				dx := dist[x] + 1
				for _, y := range ptgt[poff[x]:poff[x+1]] {
					if y < i32 || dist[y] != -1 {
						continue
					}
					dist[y] = dx
					ws = append(ws, y)
				}
			}
			start := 0
			if len(ends) > 0 {
				start = int(ends[len(ends)-1])
			}
			for _, w := range ws[start:] {
				cnt[w]++
				dist[w] = -1
			}
			ends = append(ends, int32(len(ws)))
		}
		shards[k] = wreachShard{lo: lo, ws: ws, ends: ends, cnt: cnt}
	})

	// Count-and-fill merge: compute each (position, shard) write cursor,
	// then let every shard copy its pairs into the shared flat buffer in
	// parallel, mapping position labels back to vertices.  Shard blocks
	// cover ascending position ranges and each shard emits sources in
	// ascending position, so cursor order reproduces the position-sorted
	// sets exactly.
	off := make([]int, n+1)
	sum := 0
	for w := 0; w < n; w++ {
		off[w] = sum
		for k := range shards {
			c := shards[k].cnt[w]
			shards[k].cnt[w] = sum // repurpose as this shard's write cursor
			sum += c
		}
	}
	off[n] = sum
	flat := make([]int, sum)
	graph.ParallelBlocks(workers, workers, func(_, klo, khi int) {
		for k := klo; k < khi; k++ {
			sh := &shards[k]
			cnt := sh.cnt
			start := 0
			for j, e := range sh.ends {
				u := perm[sh.lo+j]
				for _, w := range sh.ws[start:e] {
					flat[cnt[w]] = u
					cnt[w]++
				}
				start = int(e)
			}
		}
	})
	for w := 0; w < n; w++ {
		sets[perm[w]] = flat[off[w]:off[w+1]:off[w+1]]
	}
	return sets
}

// WColMeasure returns the measured weak r-colouring number of g under the
// order o, i.e. max_v |WReach_r[G, L, v]|.  By Theorem 1 (Zhu) this is
// bounded by a constant on every bounded expansion class when o is a good
// order.  Callers that already hold the reachability sets should use
// WColOfSets instead of paying for a second WReachSets sweep.
func WColMeasure(g *graph.Graph, o *Order, r int) int {
	return WColOfSets(WReachSets(g, o, r))
}

// WColOfSets returns the weak colouring number measured on precomputed
// weak-reachability sets: max_v |sets[v]|.
func WColOfSets(sets [][]int) int {
	max := 0
	for _, s := range sets {
		if len(s) > max {
			max = len(s)
		}
	}
	return max
}

// MinWReach returns, for every vertex w, the L-minimum element of
// WReach_r[G, L, w].  This is exactly the dominator election rule of
// Theorem 5 / Theorem 9 of the paper.
func MinWReach(g *graph.Graph, o *Order, r int) []int {
	sets := WReachSets(g, o, r)
	mins := make([]int, len(sets))
	for v, s := range sets {
		mins[v] = s[0] // sets are sorted by L-position
	}
	return mins
}
