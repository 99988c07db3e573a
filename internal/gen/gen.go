// Package gen generates graphs from families that (with the exception of the
// sparse Erdős–Rényi comparator) belong to classes of bounded expansion:
// grids and tori, trees, outerplanar graphs, planar 3-trees (Apollonian
// networks), k-trees and partial k-trees, bounded-density random geometric
// graphs, and the sparse random models cited by the paper as motivation
// (configuration model and Chung–Lu model with bounded-expansion parameter
// regimes, see Demaine et al. 2014 referenced in §1).
//
// All generators are deterministic functions of their parameters and an
// explicit random seed, so experiments are reproducible.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bedom/internal/graph"
)

// Path returns the path graph on n vertices.
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(g, i, i+1)
	}
	g.Finalize()
	return g
}

// Cycle returns the cycle on n vertices (a path for n < 3).
func Cycle(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(g, i, i+1)
	}
	if n >= 3 {
		mustAdd(g, n-1, 0)
	}
	g.Finalize()
	return g
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		mustAdd(g, 0, i)
	}
	g.Finalize()
	return g
}

// Complete returns the complete graph K_n.  It is not a bounded-expansion
// family for growing n; it is provided for tests and worst-case probes.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mustAdd(g, i, j)
		}
	}
	g.Finalize()
	return g
}

// Grid returns the rows×cols planar grid graph.
func Grid(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustAdd(g, id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				mustAdd(g, id(r, c), id(r+1, c))
			}
		}
	}
	g.Finalize()
	return g
}

// Torus returns the rows×cols toroidal grid (wrap-around in both
// dimensions).  Tori have bounded expansion (bounded degree) but are not
// planar for rows, cols ≥ 3.
func Torus(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if cols > 1 {
				mustAdd(g, id(r, c), id(r, (c+1)%cols))
			}
			if rows > 1 {
				mustAdd(g, id(r, c), id((r+1)%rows, c))
			}
		}
	}
	g.Finalize()
	return g
}

// RandomTree returns a uniformly random labelled tree on n vertices obtained
// by decoding a random Prüfer sequence.
func RandomTree(n int, seed int64) *graph.Graph {
	g := graph.New(n)
	if n <= 1 {
		g.Finalize()
		return g
	}
	if n == 2 {
		mustAdd(g, 0, 1)
		g.Finalize()
		return g
	}
	rng := rand.New(rand.NewSource(seed))
	pruefer := make([]int, n-2)
	for i := range pruefer {
		pruefer[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range pruefer {
		degree[v]++
	}
	// Decode.
	used := make([]bool, n)
	for _, v := range pruefer {
		// Smallest leaf.
		leaf := -1
		for u := 0; u < n; u++ {
			if degree[u] == 1 && !used[u] {
				leaf = u
				break
			}
		}
		mustAdd(g, leaf, v)
		used[leaf] = true
		degree[leaf]--
		degree[v]--
	}
	// Two vertices of degree 1 remain.
	var last []int
	for u := 0; u < n; u++ {
		if degree[u] == 1 && !used[u] {
			last = append(last, u)
		}
	}
	mustAdd(g, last[0], last[1])
	g.Finalize()
	return g
}

// Outerplanar returns a maximal outerplanar graph on n vertices: a cycle
// 0..n-1 plus a random triangulation of its interior (a fan for n < 4).
// Maximal outerplanar graphs are planar and 2-degenerate.
func Outerplanar(n int, seed int64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		mustAdd(g, i, i+1)
	}
	if n >= 3 {
		mustAdd(g, n-1, 0)
	}
	if n >= 4 {
		rng := rand.New(rand.NewSource(seed))
		// Random triangulation of the convex polygon 0..n-1: triangulate the
		// sub-polygon spanned by boundary positions lo..hi (the chord lo-hi
		// is already an edge) by picking a random apex and recursing.
		var split func(lo, hi int)
		split = func(lo, hi int) {
			if hi-lo < 2 {
				return
			}
			apex := lo + 1 + rng.Intn(hi-lo-1)
			if !g.HasEdge(lo, apex) {
				mustAdd(g, lo, apex)
			}
			if !g.HasEdge(apex, hi) {
				mustAdd(g, apex, hi)
			}
			split(lo, apex)
			split(apex, hi)
		}
		split(0, n-1)
	}
	g.Finalize()
	return g
}

// Apollonian returns a random Apollonian network (planar 3-tree) on n ≥ 3
// vertices: start with a triangle and repeatedly insert a new vertex inside a
// uniformly chosen face, connecting it to the face's three vertices.
// Apollonian networks are maximal planar and 3-degenerate.
func Apollonian(n int, seed int64) *graph.Graph {
	if n < 3 {
		return Complete(n)
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	mustAdd(g, 0, 1)
	mustAdd(g, 1, 2)
	mustAdd(g, 0, 2)
	faces := [][3]int{{0, 1, 2}}
	for v := 3; v < n; v++ {
		fi := rng.Intn(len(faces))
		f := faces[fi]
		mustAdd(g, v, f[0])
		mustAdd(g, v, f[1])
		mustAdd(g, v, f[2])
		// Replace the chosen face by the three new faces.
		faces[fi] = [3]int{f[0], f[1], v}
		faces = append(faces, [3]int{f[0], f[2], v}, [3]int{f[1], f[2], v})
	}
	g.Finalize()
	return g
}

// RandomKTree returns a random k-tree on n vertices: start with K_{k+1} and
// repeatedly attach a new vertex to a uniformly chosen existing k-clique.
// k-trees have treewidth exactly k and are k-degenerate.
func RandomKTree(n, k int, seed int64) *graph.Graph {
	if k < 1 {
		k = 1
	}
	if n <= k+1 {
		return Complete(n)
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			mustAdd(g, i, j)
		}
	}
	// cliques holds the k-cliques available for attachment.
	var cliques [][]int
	base := make([]int, 0, k)
	for i := 0; i <= k; i++ {
		c := make([]int, 0, k)
		for j := 0; j <= k; j++ {
			if j != i {
				c = append(c, j)
			}
		}
		cliques = append(cliques, c)
	}
	_ = base
	for v := k + 1; v < n; v++ {
		c := cliques[rng.Intn(len(cliques))]
		for _, u := range c {
			mustAdd(g, v, u)
		}
		// New k-cliques: c with one vertex replaced by v.
		for i := range c {
			nc := make([]int, k)
			copy(nc, c)
			nc[i] = v
			cliques = append(cliques, nc)
		}
	}
	g.Finalize()
	return g
}

// RandomGeometric returns a random geometric (unit-disk style) graph:
// n points uniform in the unit square, edges between pairs at Euclidean
// distance ≤ radius.  To keep the family in a bounded-expansion regime the
// expected number of points per radius-disk should be O(1); the helper
// GeometricRadiusForAvgDeg picks a radius for a target average degree.
func RandomGeometric(n int, radius float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	g := graph.New(n)
	// Grid-bucket the points to avoid the O(n²) all-pairs scan.
	cell := radius
	if cell <= 0 {
		g.Finalize()
		return g
	}
	cols := int(1/cell) + 1
	buckets := make(map[[2]int][]int)
	key := func(i int) [2]int {
		return [2]int{int(xs[i] / cell), int(ys[i] / cell)}
	}
	for i := 0; i < n; i++ {
		buckets[key(i)] = append(buckets[key(i)], i)
	}
	_ = cols
	r2 := radius * radius
	for i := 0; i < n; i++ {
		k := key(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[[2]int{k[0] + dx, k[1] + dy}] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if ddx*ddx+ddy*ddy <= r2 {
						mustAdd(g, i, j)
					}
				}
			}
		}
	}
	g.Finalize()
	return g
}

// GeometricRadiusForAvgDeg returns a connection radius so that a random
// geometric graph on n points in the unit square has expected average degree
// approximately avgDeg.
func GeometricRadiusForAvgDeg(n int, avgDeg float64) float64 {
	if n <= 1 {
		return 0
	}
	return math.Sqrt(avgDeg / (float64(n-1) * math.Pi))
}

// ErdosRenyi returns G(n, p).  Sparse Erdős–Rényi graphs (p = c/n) are
// included as a comparator: they are degenerate in expectation but do not
// form a bounded expansion class for all parameter ranges, and the
// experiments use them to show the algorithms degrade gracefully.
func ErdosRenyi(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	// Geometric skipping for sparse p.
	if p <= 0 {
		g.Finalize()
		return g
	}
	if p >= 1 {
		return Complete(n)
	}
	logq := math.Log(1 - p)
	v, w := 1, -1
	for v < n {
		r := rng.Float64()
		w += 1 + int(math.Floor(math.Log(1-r)/logq))
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			mustAdd(g, v, w)
		}
	}
	g.Finalize()
	return g
}

// ChungLu returns a Chung–Lu random graph with the given expected degree
// sequence: the edge {i, j} is present with probability
// min(1, w_i·w_j / Σw).  The paper cites (via Demaine et al.) that Chung–Lu
// graphs with suitable degree sequences asymptotically almost surely have
// bounded expansion.
func ChungLu(weights []float64, seed int64) *graph.Graph {
	n := len(weights)
	rng := rand.New(rand.NewSource(seed))
	total := 0.0
	for _, w := range weights {
		total += w
	}
	g := graph.New(n)
	if total <= 0 {
		g.Finalize()
		return g
	}
	// Sort vertices by decreasing weight and use Miller–Hagberg skip
	// sampling: for a fixed i the edge probabilities are non-increasing along
	// the sorted suffix, so geometric skips with rejection give expected time
	// proportional to n + m instead of n².
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return weights[idx[a]] > weights[idx[b]] })
	clamp := func(x float64) float64 {
		if x > 1 {
			return 1
		}
		if x < 0 {
			return 0
		}
		return x
	}
	for a := 0; a < n-1; a++ {
		i := idx[a]
		b := a + 1
		p := clamp(weights[i] * weights[idx[b]] / total)
		for b < n && p > 0 {
			if p < 1 {
				r := rng.Float64()
				if r <= 0 {
					r = math.SmallestNonzeroFloat64
				}
				b += int(math.Log(r) / math.Log(1-p))
			}
			if b >= n {
				break
			}
			q := clamp(weights[i] * weights[idx[b]] / total)
			if rng.Float64() < q/p {
				mustAdd(g, i, idx[b])
			}
			p = q
			b++
		}
	}
	g.Finalize()
	return g
}

// PowerLawWeights returns n Chung–Lu weights following a truncated power law
// with exponent beta (> 2 keeps the expected degree bounded) and maximum
// expected degree maxDeg.
func PowerLawWeights(n int, beta, maxDeg float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		// Inverse-CDF sampling of a Pareto-like distribution with xmin=1.
		u := rng.Float64()
		val := math.Pow(1-u, -1/(beta-1))
		if val > maxDeg {
			val = maxDeg
		}
		w[i] = val
	}
	return w
}

// ConfigurationModel returns a simple graph sampled from the configuration
// model with the given degree sequence: half-edges are matched uniformly at
// random; self-loops and parallel edges are discarded (erased configuration
// model).  The degree sum may be odd, in which case one stub is dropped.
func ConfigurationModel(degrees []int, seed int64) *graph.Graph {
	n := len(degrees)
	rng := rand.New(rand.NewSource(seed))
	var stubs []int
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := graph.New(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v {
			continue
		}
		mustAdd(g, u, v) // duplicates collapse inside AddEdge
	}
	g.Finalize()
	return g
}

// BoundedDegreeSequence returns a degree sequence of length n where degrees
// are drawn uniformly from [1, maxDeg]; such sequences keep the configuration
// model inside a bounded expansion class asymptotically almost surely.
func BoundedDegreeSequence(n, maxDeg int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	d := make([]int, n)
	for i := range d {
		d[i] = 1 + rng.Intn(maxDeg)
	}
	return d
}

// GridWithHoles returns a rows×cols grid in which each vertex is deleted
// independently with probability holeProb (its incident edges disappear);
// vertices are kept in place so indices stay 0..rows·cols-1 and deleted
// vertices become isolated.  The family stays planar.
func GridWithHoles(rows, cols int, holeProb float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	full := Grid(rows, cols)
	deleted := make([]bool, full.N())
	for v := range deleted {
		deleted[v] = rng.Float64() < holeProb
	}
	g := graph.New(full.N())
	for _, e := range full.Edges() {
		if !deleted[e[0]] && !deleted[e[1]] {
			mustAdd(g, e[0], e[1])
		}
	}
	g.Finalize()
	return g
}

func mustAdd(g *graph.Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(fmt.Sprintf("gen: internal edge error: %v", err))
	}
}
