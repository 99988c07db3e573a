package graph

// Components returns the connected components of g as slices of vertices and
// a lookup comp[v] = component index.
func (g *Graph) Components() (parts [][]int, comp []int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	q := NewIntQueue(16)
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		idx := len(parts)
		comp[s] = idx
		part := []int{s}
		q.Reset()
		q.Push(s)
		for !q.Empty() {
			v := q.Pop()
			for _, w := range g.Neighbors(v) {
				u := int(w)
				if comp[u] == -1 {
					comp[u] = idx
					part = append(part, u)
					q.Push(u)
				}
			}
		}
		parts = append(parts, part)
	}
	return parts, comp
}

// IsConnected reports whether g is connected (the empty graph and the
// one-vertex graph are considered connected).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	parts, _ := g.Components()
	return len(parts) == 1
}

// IsConnectedSubset reports whether the subgraph of g induced by verts is
// connected.  An empty or singleton set is considered connected.
func (g *Graph) IsConnectedSubset(verts []int) bool {
	if len(verts) <= 1 {
		return true
	}
	in := make(map[int]bool, len(verts))
	for _, v := range verts {
		in[v] = true
	}
	// BFS within the set.
	seen := map[int]bool{verts[0]: true}
	q := NewIntQueue(len(verts))
	q.Push(verts[0])
	for !q.Empty() {
		v := q.Pop()
		for _, w := range g.Neighbors(v) {
			u := int(w)
			if in[u] && !seen[u] {
				seen[u] = true
				q.Push(u)
			}
		}
	}
	return len(seen) == len(in)
}

// UnionFind is a disjoint-set forest with union by rank and path compression.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind returns a union-find structure over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets of x and y and reports whether they were distinct.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	return true
}
