// Package domset implements sequential algorithms for the DISTANCE-r
// DOMINATING SET problem: the paper's constant-factor approximation
// (Algorithm 1 of Theorem 5), the classical greedy baseline, an order-greedy
// baseline in the spirit of Dvořák's earlier algorithm, an exact
// branch-and-bound solver for small instances, and lower-bound routines used
// to measure approximation ratios in the experiments.
package domset

import (
	"sort"

	"bedom/internal/graph"
	"bedom/internal/order"
)

// Check reports whether D is a distance-r dominating set of g: every vertex
// must be within distance r of some element of D.  The empty set dominates
// only the empty graph.
func Check(g *graph.Graph, D []int, r int) bool {
	if g.N() == 0 {
		return true
	}
	if len(D) == 0 {
		return false
	}
	dist := g.MultiSourceDistances(D)
	for _, d := range dist {
		if d == graph.Unreached || d > r {
			return false
		}
	}
	return true
}

// FromOrder computes the paper's distance-r dominating set
//
//	D := { min WReach_r[G, L, w] : w ∈ V(G) }
//
// directly from the weak reachability sets (equation (2) in the proof of
// Theorem 5).  It is equivalent to AlgorithmOne (a test asserts this) but
// more convenient for reuse when WReach sets are already available.
func FromOrder(g *graph.Graph, o *order.Order, r int) []int {
	mins := order.MinWReach(g, o, r)
	seen := make(map[int]bool, len(mins))
	var D []int
	for _, v := range mins {
		if !seen[v] {
			seen[v] = true
			D = append(D, v)
		}
	}
	sort.Ints(D)
	return D
}

// AlgorithmOne is a faithful implementation of Algorithm 1 (DomSet) of the
// paper: it sorts the adjacency lists consistently with L (Algorithm 2),
// iterates through the vertices in increasing order and runs, for each
// vertex v, the restricted breadth-first search of Algorithm 3 (only
// vertices larger than v, at most r steps).  Vertex v joins the dominating
// set if its restricted ball contains a vertex that is not yet dominated.
func AlgorithmOne(g *graph.Graph, o *order.Order, r int) []int {
	n := g.N()
	// Algorithm 2 (SortLists): adjacency lists sorted increasingly w.r.t. L.
	sorted := make([][]int, n)
	for i := 0; i < n; i++ {
		v := o.At(i)
		for _, wn := range g.Neighbors(v) {
			w := int(wn)
			sorted[w] = append(sorted[w], v)
		}
	}
	dominated := make([]bool, n)
	var D []int
	// Scratch space for the restricted BFS (Algorithm 3).
	visited := make([]bool, n)
	touched := make([]int, 0, 64)
	type qitem struct{ v, dist int }
	queue := make([]qitem, 0, 64)

	for i := 0; i < n; i++ {
		v := o.At(i)
		// Algorithm 3: BFS from v restricted to vertices > v and ≤ r steps.
		queue = queue[:0]
		touched = touched[:0]
		queue = append(queue, qitem{v, 0})
		visited[v] = true
		touched = append(touched, v)
		newlyDominated := false
		for head := 0; head < len(queue); head++ {
			it := queue[head]
			if !dominated[it.v] {
				newlyDominated = true
			}
			if it.dist >= r {
				continue
			}
			// Iterate the L-sorted adjacency list from the largest end and
			// stop at the first vertex smaller than v, as in the running
			// time analysis of Theorem 5.
			adj := sorted[it.v]
			for j := len(adj) - 1; j >= 0; j-- {
				u := adj[j]
				if o.Less(u, v) {
					break
				}
				if !visited[u] {
					visited[u] = true
					touched = append(touched, u)
					queue = append(queue, qitem{u, it.dist + 1})
				}
			}
		}
		if newlyDominated {
			D = append(D, v)
			for _, it := range queue {
				dominated[it.v] = true
			}
		}
		for _, u := range touched {
			visited[u] = false
		}
	}
	sort.Ints(D)
	return D
}
