package domset

import "bedom/internal/graph"

// ScatteredLowerBound returns the size of a maximal 2r-scattered subset of
// the given candidate set (falling back to all vertices when candidates is
// nil): a set of vertices with pairwise distance greater than 2r.  Any
// distance-r dominating set must contain a distinct dominator for each
// scattered vertex, so the returned value is a lower bound on the optimum.
//
// Passing the approximate dominating set itself as candidates is a good
// heuristic: dominators tend to be spread out, which yields strong bounds.
func ScatteredLowerBound(g *graph.Graph, r int, candidates []int) int {
	if g.N() == 0 {
		return 0
	}
	cand := candidates
	if len(cand) == 0 {
		cand = make([]int, g.N())
		for i := range cand {
			cand[i] = i
		}
	}
	// Greedily add candidates whose 2r-ball avoids previously chosen ones.
	blocked := graph.NewBitset(g.N())
	bw := g.NewBallWalker()
	count := 0
	for _, v := range cand {
		if blocked.Get(v) {
			continue
		}
		count++
		for _, u := range bw.Ball(v, 2*r) {
			blocked.Set(u)
		}
	}
	return count
}

// BestLowerBound combines the scattered-set bound seeded by several candidate
// orders and, for small graphs, the exact optimum.  exactLimit bounds the
// vertex count for which the exact solver is attempted (0 disables it);
// exactBudget is the branch-and-bound node budget.
func BestLowerBound(g *graph.Graph, r int, approx []int, exactLimit, exactBudget int) (lb int, exact bool) {
	lb = ScatteredLowerBound(g, r, approx)
	if alt := ScatteredLowerBound(g, r, nil); alt > lb {
		lb = alt
	}
	// A degree-based bound for r=1: each dominator covers at most Δ+1
	// vertices.
	if r == 1 && g.MaxDegree() > 0 {
		if db := (g.N() + g.MaxDegree()) / (g.MaxDegree() + 1); db > lb {
			lb = db
		}
	}
	if exactLimit > 0 && g.N() <= exactLimit {
		if opt, ok := Exact(g, r, exactBudget); ok {
			return opt, true
		}
	}
	return lb, false
}
