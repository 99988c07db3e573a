package gen

import (
	"math/rand"

	"bedom/internal/graph"
)

// This file holds the size-parameterised generators behind the large
// benchmark tier (cmd/benchrun -tier large): families that scale to 10⁶–10⁷
// vertices in O(n + m) time and memory.  The standard Families() registry is
// reused where its generators are already linear (grids, tori, geometric,
// configuration model); families whose small-n generators have superlinear
// cost get dedicated linear-time counterparts here.  RandomTree in
// particular decodes a Prüfer sequence with a linear leaf scan per symbol
// (O(n²)) and its byte-exact output is pinned by BENCH_baseline.json, so the
// large tier uses RandomAttachmentTree instead of changing it.

// RandomAttachmentTree returns a uniform random recursive tree on n
// vertices: vertex v (v ≥ 1) attaches to a parent drawn uniformly from
// 0..v-1.  The model differs from the uniform labelled trees of RandomTree
// but shares the properties the experiments care about (treewidth 1, O(log n)
// expected height for the root), and it generates in O(n) time.
func RandomAttachmentTree(n int, seed int64) *graph.Graph {
	g := graph.New(n)
	rng := rand.New(rand.NewSource(seed))
	for v := 1; v < n; v++ {
		mustAdd(g, v, rng.Intn(v))
	}
	g.Finalize()
	return g
}

// LargeFamilies returns the registry used by the large benchmark tier.
// Every generator here runs in O(n + m); names are disjoint from Families()
// where the construction differs (attach-tree vs tree) and identical where
// the same generator serves both tiers.
func LargeFamilies() []Family {
	var out []Family
	for _, f := range Families() {
		switch f.Name {
		case "grid", "torus", "geometric", "config":
			out = append(out, f)
		}
	}
	out = append(out, Family{
		Name:   "attach-tree",
		Class:  "random recursive trees (treewidth 1)",
		Planar: true,
		Generate: func(n int, seed int64) *graph.Graph {
			return RandomAttachmentTree(n, seed)
		},
	})
	return out
}
