// Package connect turns distance-r dominating sets into *connected*
// distance-r dominating sets, implementing the sequential reference versions
// of the paper's §5: the weak-reachability closure of Corollary 13 (used by
// the CONGEST_BC algorithm of Theorem 10), the D-partition into balls and the
// contracted depth-r minor H(D) of Lemmas 14–15, and the LOCAL-model
// connector of Lemma 16 / Theorem 17.
package connect

import (
	"fmt"
	"sort"

	"bedom/internal/graph"
	"bedom/internal/order"
)

// CheckConnected reports whether D is a connected distance-r dominating set
// of g: it must distance-r dominate g and induce a connected subgraph.
func CheckConnected(g *graph.Graph, D []int, r int) bool {
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
	return g.IsConnectedSubset(D)
}

// Closure implements Corollary 13: given an order L (intended to witness a
// small wcol_{2r+1}) and a distance-r dominating set D, it returns
//
//	D' = D ∪ ⋃_{v ∈ D} ⋃_{w ∈ WReach_{2r+1}[G,L,v]} V(P_{v,w})
//
// where P_{v,w} is the weak-reachability witness path.  On a connected graph
// D' is a connected distance-r dominating set of size at most
// wcol_{2r+1}(G,L)·(2r+1)·|D| + |D|.
func Closure(g *graph.Graph, o *order.Order, D []int, r int) []int {
	wits := order.WReachWithPaths(g, o, 2*r+1)
	inD := make([]bool, g.N())
	for _, v := range D {
		inD[v] = true
	}
	out := make(map[int]bool, len(D)*4)
	for _, v := range D {
		out[v] = true
		for _, pt := range wits[v] {
			for _, x := range pt.Path {
				out[x] = true
			}
		}
	}
	return sortedKeys(out)
}

// SpanningConnector is the folklore sequential baseline (Lemma 11): compute
// the Voronoi quotient of G with respect to D (each vertex assigned to its
// nearest dominator, ties by smaller dominator index), take a spanning
// forest of the quotient graph and add, for every forest edge, a realizing
// path of length at most 2r+1.  On a connected graph the result is a
// connected distance-r dominating set of size at most |D| + (|D|−1)·2r.
func SpanningConnector(g *graph.Graph, D []int, r int) []int {
	if len(D) == 0 {
		return nil
	}
	owner, parent := nearestDominator(g, D)
	// Candidate quotient edges from G-edges crossing between territories.
	type crossing struct {
		a, b int // indices into D
		u, v int // endpoints of the G-edge realizing the crossing
	}
	var crossings []crossing
	for _, e := range g.Edges() {
		u, v := e[0], e[1]
		if owner[u] == -1 || owner[v] == -1 || owner[u] == owner[v] {
			continue
		}
		crossings = append(crossings, crossing{owner[u], owner[v], u, v})
	}
	uf := graph.NewUnionFind(len(D))
	result := make(map[int]bool)
	for _, v := range D {
		result[v] = true
	}
	for _, c := range crossings {
		if !uf.Union(c.a, c.b) {
			continue
		}
		// Realize the connection: walk from u up to its dominator and from v
		// up to its dominator along BFS parents.
		for x := c.u; x != -1; x = parent[x] {
			result[x] = true
		}
		for x := c.v; x != -1; x = parent[x] {
			result[x] = true
		}
	}
	return sortedKeys(result)
}

// nearestDominator runs a multi-source BFS from D and returns, for every
// vertex, the index (into D) of its closest dominator (ties broken toward
// the smaller index) and the BFS parent pointer toward that dominator
// (-1 at the dominators themselves and at unreachable vertices).
func nearestDominator(g *graph.Graph, D []int) (owner, parent []int) {
	n := g.N()
	owner = make([]int, n)
	parent = make([]int, n)
	dist := make([]int, n)
	for i := 0; i < n; i++ {
		owner[i] = -1
		parent[i] = -1
		dist[i] = -1
	}
	q := graph.NewIntQueue(len(D) + 1)
	for i, v := range D {
		if owner[v] == -1 {
			owner[v] = i
			dist[v] = 0
			q.Push(v)
		}
	}
	for !q.Empty() {
		x := q.Pop()
		for _, wn := range g.Neighbors(x) {
			y := int(wn)
			if dist[y] == -1 {
				dist[y] = dist[x] + 1
				owner[y] = owner[x]
				parent[y] = x
				q.Push(y)
			}
		}
	}
	return owner, parent
}

// DPartition computes the D-partition of Lemma 14: every vertex w is assigned
// to the dominator v ∈ D whose lexicographically shortest path P(v, w) is
// smallest (shorter paths first; ties by the id sequence of the path read
// from the dominator's side, then by dominator id).  ids gives the network
// identifier of each vertex used for the lexicographic comparison; pass nil
// to use the vertex indices themselves.
//
// It returns part[w] = index into D of the ball containing w.  Vertices
// farther than r from every dominator (only possible when D is not a
// distance-r dominating set) get part -1.
func DPartition(g *graph.Graph, D []int, r int, ids []int) []int {
	n := g.N()
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	}
	part := make([]int, n)
	for w := 0; w < n; w++ {
		part[w] = bestDominatorFor(g, D, r, ids, w)
	}
	return part
}

// bestDominatorFor returns the index into D of the dominator owning w under
// the lexicographic rule of Lemma 14, or -1 if no dominator is within
// distance r.
func bestDominatorFor(g *graph.Graph, D []int, r int, ids []int, w int) int {
	distW := g.BFSDistancesBounded(w, r)
	bestIdx := -1
	var bestPath []int
	for i, v := range D {
		dv := distW[v]
		if dv == graph.Unreached {
			continue
		}
		if bestIdx != -1 && dv > len(bestPath)-1 {
			continue
		}
		p := lexMinPathUsingDist(g, v, w, distW, ids)
		if bestIdx == -1 || pathLess(p, bestPath, ids) ||
			(!pathLess(bestPath, p, ids) && ids[v] < ids[D[bestIdx]]) {
			bestIdx = i
			bestPath = p
		}
	}
	return bestIdx
}

// lexMinPathUsingDist returns the lexicographically smallest shortest path
// from v to w, where distW[x] = dist(x, w) has been precomputed (bounded BFS
// from w).  The path is built from the v side: at every step the neighbor
// with distance one less and the smallest id is chosen.
func lexMinPathUsingDist(g *graph.Graph, v, w int, distW []int, ids []int) []int {
	path := []int{v}
	cur := v
	for cur != w {
		next := -1
		for _, nb := range g.Neighbors(cur) {
			u := int(nb)
			if distW[u] == graph.Unreached || distW[u] != distW[cur]-1 {
				continue
			}
			if next == -1 || ids[u] < ids[next] {
				next = u
			}
		}
		if next == -1 {
			// Cannot happen when distW[v] is finite; guard anyway.
			return path
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// pathLess reports whether path a is lexicographically smaller than path b
// under the rule of §5: shorter paths first, then the id sequences compared
// entry by entry.
func pathLess(a, b []int, ids []int) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if ids[a[i]] != ids[b[i]] {
			return ids[a[i]] < ids[b[i]]
		}
	}
	return false
}

// VerifyPartition checks the structural claims of Lemma 14: the parts form a
// partition of V(G) (when D distance-r dominates G) and every part induces a
// subgraph in which its dominator reaches all members within r steps.
func VerifyPartition(g *graph.Graph, D []int, r int, part []int) error {
	members := make([][]int, len(D))
	for w, p := range part {
		if p < 0 || p >= len(D) {
			return fmt.Errorf("connect: vertex %d not assigned to any ball", w)
		}
		members[p] = append(members[p], w)
	}
	bw := g.NewBallWalker()
	for i, v := range D {
		if len(members[i]) == 0 {
			continue
		}
		if part[v] != i {
			return fmt.Errorf("connect: dominator %d not inside its own ball", v)
		}
		ecc := bw.EccentricityWithin(v, members[i])
		if ecc < 0 {
			return fmt.Errorf("connect: ball of dominator %d is disconnected", v)
		}
		if ecc > r {
			return fmt.Errorf("connect: ball of dominator %d has radius %d > r=%d", v, ecc, r)
		}
	}
	return nil
}

// MinorFromPartition contracts the parts of a D-partition and returns the
// resulting depth-r minor H(D) of Lemma 15 (vertex i of the minor is the
// ball of dominator D[i]).
func MinorFromPartition(g *graph.Graph, nparts int, part []int) *graph.Graph {
	return g.ContractPartition(part, nparts)
}

// LocalConnector is the sequential reference implementation of Lemma 16: it
// computes the D-partition, the contracted minor H(D) and, for every edge
// {u, v} of H(D), the lexicographically smallest shortest path between the
// two dominators (of length at most 2r+1), and returns D together with all
// path vertices.  On a connected graph the result is a connected distance-r
// dominating set of size at most 2r·|E(H(D))| + |D|.
//
// The distributed LOCAL-model version in internal/distalgo runs the very
// same per-dominator computation from (2r+1)-neighborhood snapshots in 3r+1
// rounds; a test asserts both produce identical sets.
func LocalConnector(g *graph.Graph, D []int, r int, ids []int) []int {
	if len(D) == 0 {
		return nil
	}
	if ids == nil {
		ids = make([]int, g.N())
		for i := range ids {
			ids[i] = i
		}
	}
	part := DPartition(g, D, r, ids)
	h := MinorFromPartition(g, len(D), part)
	result := make(map[int]bool)
	for _, v := range D {
		result[v] = true
	}
	for _, e := range h.Edges() {
		u, v := D[e[0]], D[e[1]]
		for _, x := range CanonicalPath(g, u, v, 2*r+1, ids) {
			result[x] = true
		}
	}
	return sortedKeys(result)
}

// CanonicalPath returns the canonical connecting path between two vertices a
// and b used by Lemma 16: the lexicographically smallest shortest path, read
// from the endpoint with the smaller id.  Both endpoints compute exactly the
// same path from their local views, which is what makes the distributed
// LOCAL connector consistent.  It returns nil when the two vertices are
// farther apart than maxLen.
func CanonicalPath(g *graph.Graph, a, b, maxLen int, ids []int) []int {
	if ids == nil {
		ids = make([]int, g.N())
		for i := range ids {
			ids[i] = i
		}
	}
	from, to := a, b
	if ids[b] < ids[a] {
		from, to = b, a
	}
	distTo := g.BFSDistancesBounded(to, maxLen)
	if distTo[from] == graph.Unreached {
		return nil
	}
	return lexMinPathUsingDist(g, from, to, distTo, ids)
}

// MinorEdgeDensity returns |E(H)| / |V(H)| of a graph H, the quantity d that
// bounds the blow-up factor 2r·d of Lemma 16 (e.g. d < 3 for planar graphs).
func MinorEdgeDensity(h *graph.Graph) float64 {
	if h.N() == 0 {
		return 0
	}
	return float64(h.M()) / float64(h.N())
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
