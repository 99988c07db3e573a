package domset

import (
	"container/heap"
	"sort"

	"bedom/internal/graph"
)

// Greedy computes a distance-r dominating set with the classical greedy
// heuristic: repeatedly add the vertex whose closed r-ball covers the most
// not-yet-covered vertices.  This is the ln n-approximation the paper cites
// as the general-graph baseline; it serves as a comparison point in
// experiment E1.
//
// The implementation uses lazy evaluation of the (submodular) coverage gain,
// so each ball is recomputed only when its cached gain might be stale.
func Greedy(g *graph.Graph, r int) []int {
	n := g.N()
	if n == 0 {
		return nil
	}
	covered := graph.NewBitset(n)
	bw := g.NewBallWalker()
	gain := func(v int) int {
		cnt := 0
		for _, u := range bw.Ball(v, r) {
			if !covered.Get(u) {
				cnt++
			}
		}
		return cnt
	}
	// Cached gains must upper-bound the true gain for the lazy evaluation to
	// pick the exact greedy choice (gains only shrink as coverage grows), so
	// every item starts at the trivial upper bound n and stale.  A gain is
	// fresh only if computed since the latest pick: item.pick == len(D).
	pq := make(lazyQueue, 0, n)
	for v := 0; v < n; v++ {
		pq = append(pq, lazyItem{v: v, gain: n, pick: -1})
	}
	heap.Init(&pq)
	var D []int
	numCovered := 0
	for numCovered < n && pq.Len() > 0 {
		top := pq[0]
		fresh := gain(top.v)
		if fresh == 0 {
			heap.Pop(&pq)
			continue
		}
		if top.pick != len(D) || fresh != top.gain {
			pq[0].gain = fresh
			pq[0].pick = len(D)
			heap.Fix(&pq, 0)
			continue
		}
		heap.Pop(&pq)
		D = append(D, top.v) // stales every remaining cached gain
		for _, u := range bw.Ball(top.v, r) {
			if !covered.Get(u) {
				covered.Set(u)
				numCovered++
			}
		}
	}
	sort.Ints(D)
	return D
}

type lazyItem struct {
	v    int
	gain int
	pick int // len(D) when gain was computed
}

type lazyQueue []lazyItem

func (q lazyQueue) Len() int            { return len(q) }
func (q lazyQueue) Less(i, j int) bool  { return q[i].gain > q[j].gain }
func (q lazyQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *lazyQueue) Push(x interface{}) { *q = append(*q, x.(lazyItem)) }
func (q *lazyQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// OrderGreedy is the order-driven baseline in the spirit of Dvořák's
// constant-factor algorithm: process vertices in increasing order L and add
// a vertex to the dominating set whenever it is not yet distance-r dominated
// by the current set.  On bounded expansion classes with a good order this
// also achieves a constant factor (roughly wcol_2r²), which is the ratio the
// paper improves on; the experiments compare the two.
func OrderGreedy(g *graph.Graph, positions []int, r int) []int {
	n := g.N()
	type pv struct{ pos, v int }
	vs := make([]pv, n)
	for v := 0; v < n; v++ {
		vs[v] = pv{positions[v], v}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].pos < vs[j].pos })
	covered := make([]bool, n)
	bw := g.NewBallWalker()
	var D []int
	for _, x := range vs {
		if covered[x.v] {
			continue
		}
		D = append(D, x.v)
		for _, u := range bw.Ball(x.v, r) {
			covered[u] = true
		}
	}
	sort.Ints(D)
	return D
}
