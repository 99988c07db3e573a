// Package cover constructs and verifies sparse r-neighborhood covers from
// weak-reachability orders, following Theorem 4 of the paper (Grohe,
// Kreutzer, Siebertz): given an order L witnessing wcol_2r(G) ≤ c, the
// collection X = {X_v : v ∈ V(G)} with
//
//	X_v = { w : v ∈ WReach_2r[G, L, w] }
//
// is an r-neighborhood cover of radius at most 2r and degree at most c.
package cover

import (
	"fmt"
	"sort"

	"bedom/internal/graph"
	"bedom/internal/order"
)

// Cover is an r-neighborhood cover of a graph.  Clusters are stored
// slice-indexed by center vertex (a nil row means the vertex centers no
// cluster), which keeps construction a pair of linear passes over the
// weak-reachability sets instead of hash-map churn.
type Cover struct {
	// R is the covering radius parameter: for every vertex v some cluster
	// contains the full closed r-neighborhood N_r[v].
	R int
	// Home[w] is the center of a cluster that contains N_r[w] — following
	// Lemma 6 it is min WReach_r[G, L, w].
	Home []int
	// clusters[v] is the cluster X_v centered at v, sorted increasingly;
	// nil when v centers no cluster.
	clusters [][]int
	// centers lists the cluster centers increasingly.
	centers []int
	// memberships[w] lists the centers of clusters containing w (it aliases
	// the WReach_2r set of w, which is exactly that list).
	memberships [][]int
}

// Build constructs the cover of Theorem 4 from the order o.
func Build(g *graph.Graph, o *order.Order, r int) *Cover {
	sets2r := order.WReachSets(g, o, 2*r)
	setsR := order.WReachSets(g, o, r)
	return BuildFromSets(g, r, setsR, sets2r, 0)
}

// BuildFromSets constructs the radius-r cover from precomputed
// weak-reachability sets: setsR at radius r (used for the Home pointers)
// and sets2r at radius 2r (whose inversion is the cluster collection).
// workers bounds the goroutines of the inversion (0 = GOMAXPROCS); the
// result is identical for every worker count.  The cover keeps references
// into sets2r — treat the sets as immutable afterwards.
func BuildFromSets(g *graph.Graph, r int, setsR, sets2r [][]int, workers int) *Cover {
	n := g.N()
	c := &Cover{
		R:           r,
		Home:        make([]int, n),
		clusters:    make([][]int, n),
		memberships: sets2r,
	}
	for w := 0; w < n; w++ {
		c.Home[w] = setsR[w][0]
	}

	// Invert sets2r: cluster[v] = { w : v ∈ sets2r[w] }, w ascending.  The
	// count-and-fill pass shards the w-range across workers; shard blocks
	// are ascending and each shard emits w ascending, so cursor order yields
	// sorted clusters without any per-cluster sort.
	workers = graph.ResolveWorkers(workers, n)
	if n < graph.MinParallelVertices {
		workers = 1
	}
	cnts := make([][]int, workers)
	graph.ParallelBlocks(n, workers, func(k, lo, hi int) {
		cnt := make([]int, n)
		for w := lo; w < hi; w++ {
			for _, v := range sets2r[w] {
				cnt[v]++
			}
		}
		cnts[k] = cnt
	})
	off := make([]int, n+1)
	sum := 0
	for v := 0; v < n; v++ {
		off[v] = sum
		for k := range cnts {
			ck := cnts[k][v]
			cnts[k][v] = sum // repurpose as shard k's write cursor for v
			sum += ck
		}
	}
	off[n] = sum
	flat := make([]int, sum)
	graph.ParallelBlocks(n, workers, func(k, lo, hi int) {
		cnt := cnts[k]
		for w := lo; w < hi; w++ {
			for _, v := range sets2r[w] {
				flat[cnt[v]] = w
				cnt[v]++
			}
		}
	})
	centers := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if off[v] < off[v+1] {
			c.clusters[v] = flat[off[v]:off[v+1]:off[v+1]]
			centers = append(centers, v)
		}
	}
	c.centers = centers
	return c
}

// Degree returns the degree of the cover: the maximum number of clusters any
// single vertex belongs to.  Theorem 4 bounds it by wcol_2r(G, L).
func (c *Cover) Degree() int {
	max := 0
	for _, m := range c.memberships {
		if len(m) > max {
			max = len(m)
		}
	}
	return max
}

// AvgDegree returns the average number of clusters a vertex belongs to.
func (c *Cover) AvgDegree() float64 {
	if len(c.memberships) == 0 {
		return 0
	}
	total := 0
	for _, m := range c.memberships {
		total += len(m)
	}
	return float64(total) / float64(len(c.memberships))
}

// Cluster returns the cluster centered at v (sorted increasingly), or nil
// when v centers no cluster.  The slice is owned by the cover.
func (c *Cover) Cluster(v int) []int { return c.clusters[v] }

// Centers returns the cluster centers in increasing vertex order.  The
// slice is owned by the cover.
func (c *Cover) Centers() []int { return c.centers }

// NumClusters returns the number of (non-empty) clusters.
func (c *Cover) NumClusters() int { return len(c.centers) }

// ClusterMap materialises the center → cluster mapping as a fresh map whose
// value slices are shared with the cover (callers may add/remove keys but
// must not mutate the slices).
func (c *Cover) ClusterMap() map[int][]int {
	m := make(map[int][]int, len(c.centers))
	for _, v := range c.centers {
		m[v] = c.clusters[v]
	}
	return m
}

// Stats aggregates the quality measures of a cover that the experiments
// report (experiment E2).
type Stats struct {
	R           int
	NumClusters int
	Degree      int
	AvgDegree   float64
	// MaxRadius is the maximum over clusters X of the eccentricity of the
	// cluster center within G[X]; Theorem 4 bounds it by 2r.
	MaxRadius int
	// MaxClusterSize and AvgClusterSize describe cluster cardinalities.
	MaxClusterSize int
	AvgClusterSize float64
}

// ComputeStats measures the cover against g.  The per-cluster radius sweeps
// are independent, so they fan out across GOMAXPROCS workers, one
// graph.BallWalker per worker block (max/sum merging is order-independent,
// keeping the result deterministic).
func (c *Cover) ComputeStats(g *graph.Graph) Stats { return c.ComputeStatsWorkers(g, 0) }

// ComputeStatsWorkers is ComputeStats with an explicit bound on the
// goroutines of the radius sweeps (0 = GOMAXPROCS).
func (c *Cover) ComputeStatsWorkers(g *graph.Graph, workers int) Stats {
	st := Stats{
		R:           c.R,
		NumClusters: c.NumClusters(),
		Degree:      c.Degree(),
		AvgDegree:   c.AvgDegree(),
	}
	type acc struct {
		total, maxSize, maxRadius int
	}
	workers = graph.ResolveWorkers(workers, len(c.centers))
	accs := make([]acc, workers)
	graph.ParallelBlocks(len(c.centers), workers, func(k, lo, hi int) {
		var a acc
		bw := g.NewBallWalker()
		for i := lo; i < hi; i++ {
			center := c.centers[i]
			cluster := c.clusters[center]
			a.total += len(cluster)
			if len(cluster) > a.maxSize {
				a.maxSize = len(cluster)
			}
			if rad := bw.EccentricityWithin(center, cluster); rad > a.maxRadius {
				a.maxRadius = rad
			}
		}
		accs[k] = a
	})
	totalSize := 0
	for _, a := range accs {
		totalSize += a.total
		if a.maxSize > st.MaxClusterSize {
			st.MaxClusterSize = a.maxSize
		}
		if a.maxRadius > st.MaxRadius {
			st.MaxRadius = a.maxRadius
		}
	}
	if st.NumClusters > 0 {
		st.AvgClusterSize = float64(totalSize) / float64(st.NumClusters)
	}
	return st
}

// Verify checks the defining property of an r-neighborhood cover: for every
// vertex w there is a cluster containing the full closed r-neighborhood
// N_r[w].  Following Lemma 6, it checks the cluster of Home[w] and falls back
// to scanning all clusters containing w.  It also re-checks that every
// cluster induces a subgraph in which the center reaches all cluster members
// within 2r steps.  Returns nil if the cover is valid.
func (c *Cover) Verify(g *graph.Graph) error {
	bw := g.NewBallWalker()
	for w := 0; w < g.N(); w++ {
		ball := bw.Ball(w, c.R)
		if !c.clusterContains(c.Home[w], ball) {
			ok := false
			for _, center := range c.memberships[w] {
				if c.clusterContains(center, ball) {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("cover: no cluster contains N_%d[%d]", c.R, w)
			}
		}
	}
	for _, center := range c.centers {
		rad := bw.EccentricityWithin(center, c.clusters[center])
		if rad < 0 {
			return fmt.Errorf("cover: cluster of %d does not contain its center or is disconnected", center)
		}
		if rad > 2*c.R {
			return fmt.Errorf("cover: cluster of %d has radius %d > 2r=%d", center, rad, 2*c.R)
		}
	}
	return nil
}

func (c *Cover) clusterContains(center int, verts []int) bool {
	cluster := c.clusters[center]
	for _, v := range verts {
		i := sort.SearchInts(cluster, v)
		if i >= len(cluster) || cluster[i] != v {
			return false
		}
	}
	return true
}
