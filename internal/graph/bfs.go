package graph

// Unreached is the distance value reported for vertices not reached by a
// bounded or disconnected search.
const Unreached = -1

// BFSDistancesBounded returns distances from src up to maxDepth; vertices
// farther than maxDepth (or unreachable) get Unreached.  A negative maxDepth
// means unbounded.
func (g *Graph) BFSDistancesBounded(src, maxDepth int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src] = 0
	q := NewIntQueue(16)
	q.Push(src)
	for !q.Empty() {
		v := q.Pop()
		if maxDepth >= 0 && dist[v] >= maxDepth {
			continue
		}
		for _, w := range g.Neighbors(v) {
			u := int(w)
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				q.Push(u)
			}
		}
	}
	return dist
}

// Ball returns the closed r-neighborhood N_r[v] = {u : dist(v,u) ≤ r} as a
// fresh slice in BFS order (v first), or nil when r < 0.  It allocates O(n)
// scratch per call: code that scans many balls holds one BallWalker instead.
func (g *Graph) Ball(v, r int) []int {
	// The walker is dropped on return, so its output buffer is the caller's.
	return g.NewBallWalker().Ball(v, r)
}

// BallWalker runs bounded breadth-first searches on one graph without
// allocating per search.  Its scratch arrays are epoch-stamped: a vertex's
// dist entry is meaningful only while stamp[u] equals the current epoch, so
// starting a search is one counter increment instead of an O(n) clear.
//
// The slices a walker returns are owned by the walker and valid until its
// next call.  A walker must not be used by several goroutines at once; hold
// one per goroutine.
type BallWalker struct {
	g     *Graph
	epoch uint32
	stamp []uint32
	dist  []int32
	// out is both the BFS queue and the returned ball: BFS order is the
	// order in which vertices are enqueued.
	out []int
}

// NewBallWalker allocates a walker's O(n) scratch for searches on g.
func (g *Graph) NewBallWalker() *BallWalker {
	return &BallWalker{
		g:     g,
		stamp: make([]uint32, g.n),
		dist:  make([]int32, g.n),
	}
}

// next starts a new search epoch, clearing the stamps when the counter wraps
// so that no stamp left from 2³² searches ago can alias the new epoch.
func (w *BallWalker) next() uint32 {
	w.epoch++
	if w.epoch == 0 {
		clear(w.stamp)
		w.epoch = 1
	}
	return w.epoch
}

// Ball returns N_r[v] in BFS order with v first (nil when r < 0), in the
// same order as BFSDistancesBounded discovers the vertices.  The slice is
// valid until the walker's next call.
func (w *BallWalker) Ball(v, r int) []int {
	if r < 0 {
		return nil
	}
	e := w.next()
	w.stamp[v], w.dist[v] = e, 0
	out := append(w.out[:0], v)
	for head := 0; head < len(out); head++ {
		x := out[head]
		d := w.dist[x]
		if int(d) >= r {
			continue
		}
		for _, nb := range w.g.Neighbors(x) {
			if w.stamp[nb] != e {
				w.stamp[nb], w.dist[nb] = e, d+1
				out = append(out, int(nb))
			}
		}
	}
	w.out = out
	return out
}

// EccentricityWithin returns the eccentricity of center in the subgraph of g
// induced by members: the largest distance, inside that subgraph, from center
// to a member.  It returns -1 when center is not a member or some member is
// unreachable from center inside the subgraph.  Duplicate members are
// ignored.
func (w *BallWalker) EccentricityWithin(center int, members []int) int {
	e := w.next()
	// Stamped with dist -1: a member not yet reached.
	distinct := 0
	for _, m := range members {
		if w.stamp[m] != e {
			w.stamp[m], w.dist[m] = e, -1
			distinct++
		}
	}
	if w.stamp[center] != e {
		return -1
	}
	w.dist[center] = 0
	out := append(w.out[:0], center)
	ecc := int32(0)
	for head := 0; head < len(out); head++ {
		x := out[head]
		d := w.dist[x]
		ecc = d
		for _, nb := range w.g.Neighbors(x) {
			if w.stamp[nb] == e && w.dist[nb] < 0 {
				w.dist[nb] = d + 1
				out = append(out, int(nb))
			}
		}
	}
	w.out = out
	if len(out) < distinct {
		return -1
	}
	return int(ecc)
}

// MultiSourceDistances returns, for every vertex, its distance to the nearest
// source in srcs (Unreached if no source is reachable).  This is the standard
// tool for checking distance-r domination: D is a distance-r dominating set
// iff every entry is in [0, r].
func (g *Graph) MultiSourceDistances(srcs []int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreached
	}
	q := NewIntQueue(len(srcs) + 1)
	for _, s := range srcs {
		if dist[s] == Unreached {
			dist[s] = 0
			q.Push(s)
		}
	}
	for !q.Empty() {
		v := q.Pop()
		for _, w := range g.Neighbors(v) {
			u := int(w)
			if dist[u] == Unreached {
				dist[u] = dist[v] + 1
				q.Push(u)
			}
		}
	}
	return dist
}
