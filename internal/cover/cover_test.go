package cover

import (
	"reflect"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

func build(t *testing.T, g *graph.Graph, r int) (*Cover, *order.Order) {
	t.Helper()
	o := order.ConstructDefault(g, r)
	c := Build(g, o, r)
	if err := c.Verify(g); err != nil {
		t.Fatalf("cover invalid: %v", err)
	}
	return c, o
}

func TestCoverOnPath(t *testing.T) {
	g := gen.Path(20)
	c, _ := build(t, g, 2)
	st := c.ComputeStats(g)
	if st.MaxRadius > 4 {
		t.Fatalf("path cover radius %d > 2r", st.MaxRadius)
	}
	if st.Degree > 5 {
		t.Fatalf("path cover degree %d, expected ≤ 2r+1", st.Degree)
	}
	if st.NumClusters == 0 || st.MaxClusterSize == 0 || st.AvgClusterSize <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
}

func TestCoverRadiusAndDegreeBounds(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(10, 10)},
		{"apollonian", gen.Apollonian(120, 3)},
		{"outerplanar", gen.Outerplanar(120, 4)},
		{"ktree3", gen.RandomKTree(120, 3, 5)},
		{"tree", gen.RandomTree(120, 6)},
	}
	for _, tc := range cases {
		for _, r := range []int{1, 2} {
			c, o := build(t, tc.g, r)
			st := c.ComputeStats(tc.g)
			if st.MaxRadius > 2*r {
				t.Errorf("%s r=%d: radius %d exceeds 2r", tc.name, r, st.MaxRadius)
			}
			wcol := order.WColMeasure(tc.g, o, 2*r)
			if st.Degree != wcol {
				// By construction the degree equals the measured wcol_2r.
				t.Errorf("%s r=%d: degree %d != measured wcol %d", tc.name, r, st.Degree, wcol)
			}
			if st.AvgDegree > float64(st.Degree) || st.AvgDegree < 1 {
				t.Errorf("%s r=%d: avg degree %f out of range", tc.name, r, st.AvgDegree)
			}
		}
	}
}

func TestCoverHomeClusterContainsBall(t *testing.T) {
	g := gen.Apollonian(80, 7)
	r := 2
	c, _ := build(t, g, r)
	for w := 0; w < g.N(); w++ {
		home := c.Home[w]
		members := map[int]bool{}
		for _, x := range c.Cluster(home) {
			members[x] = true
		}
		for _, x := range g.Ball(w, r) {
			if !members[x] {
				t.Fatalf("ball of %d not inside home cluster %d", w, home)
			}
		}
	}
}

func TestCoverMemberships(t *testing.T) {
	g := gen.Grid(6, 6)
	c, _ := build(t, g, 1)
	for w := 0; w < g.N(); w++ {
		for _, center := range c.memberships[w] {
			found := false
			for _, x := range c.Cluster(center) {
				if x == w {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("membership of %d in cluster %d not reflected", w, center)
			}
		}
	}
	if c.NumClusters() != len(c.Centers()) || c.NumClusters() != len(c.ClusterMap()) {
		t.Fatal("NumClusters mismatch")
	}
}

func TestCoverVerifyDetectsCorruption(t *testing.T) {
	g := gen.Grid(5, 5)
	o := order.ConstructDefault(g, 1)
	c := Build(g, o, 1)
	// Corrupt: remove a vertex from its home cluster.
	w := 12
	// Remove w from every cluster so the Home check and the fallback scan
	// both fail.
	for _, center := range c.Centers() {
		var t2 []int
		for _, x := range c.clusters[center] {
			if x != w {
				t2 = append(t2, x)
			}
		}
		c.clusters[center] = t2
	}
	if err := c.Verify(g); err == nil {
		t.Fatal("corrupted cover passed verification")
	}
}

// TestVerifyRejectsDisconnectedCluster pins that a cluster whose center
// cannot reach every member inside the cluster fails verification, even when
// all members it does reach are within 2r.
func TestVerifyRejectsDisconnectedCluster(t *testing.T) {
	g := gen.Path(3) // 0 – 1 – 2
	c := &Cover{
		R:    1,
		Home: []int{1, 1, 1},
		// X_1 = {0,1,2} holds every N_1[w]; X_0 = {0,2} is disconnected.
		clusters:    [][]int{{0, 2}, {0, 1, 2}, nil},
		centers:     []int{0, 1},
		memberships: [][]int{{0, 1}, {1}, {0, 1}},
	}
	if err := c.Verify(g); err == nil {
		t.Fatal("cover with a disconnected cluster passed verification")
	}
	c.clusters[0] = []int{0, 1}
	c.memberships[2] = []int{1}
	if err := c.Verify(g); err != nil {
		t.Fatalf("connected cover rejected: %v", err)
	}
}

func TestCoverSingleVertexAndDisconnected(t *testing.T) {
	g := graph.New(1)
	g.Finalize()
	c := Build(g, order.Identity(1), 1)
	if err := c.Verify(g); err != nil {
		t.Fatal(err)
	}
	h := graph.MustFromEdges(6, [][2]int{{0, 1}, {2, 3}, {4, 5}})
	ch := Build(h, order.ConstructDefault(h, 1), 1)
	if err := ch.Verify(h); err != nil {
		t.Fatal(err)
	}
	if ch.Degree() < 1 {
		t.Fatal("degree should be at least 1")
	}
}

// TestBuildFromSetsWorkersDeterminism asserts the sharded cover inversion
// is byte-identical for every worker count (the same contract the dist and
// order packages enforce for their parallel phases).
func TestBuildFromSetsWorkersDeterminism(t *testing.T) {
	g := gen.Grid(20, 20) // above the parallel threshold
	r := 2
	o := order.ConstructDefault(g, r)
	sets2r := order.WReachSets(g, o, 2*r)
	setsR := order.WReachSets(g, o, r)
	base := BuildFromSets(g, r, setsR, sets2r, 1)
	if err := base.Verify(g); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		c := BuildFromSets(g, r, setsR, sets2r, workers)
		if !reflect.DeepEqual(base.Home, c.Home) {
			t.Fatalf("workers=%d: Home differs", workers)
		}
		if !reflect.DeepEqual(base.Centers(), c.Centers()) {
			t.Fatalf("workers=%d: centers differ", workers)
		}
		for _, center := range base.Centers() {
			if !reflect.DeepEqual(base.Cluster(center), c.Cluster(center)) {
				t.Fatalf("workers=%d: cluster %d differs", workers, center)
			}
		}
		for w := 0; w < g.N(); w++ {
			if !reflect.DeepEqual(base.memberships[w], c.memberships[w]) {
				t.Fatalf("workers=%d: memberships of %d differ", workers, w)
			}
		}
	}
}

// TestBuildMatchesBuildFromSets asserts the convenience wrapper and the
// sets-reusing constructor agree.
func TestBuildMatchesBuildFromSets(t *testing.T) {
	g := gen.Apollonian(300, 9)
	r := 1
	o := order.ConstructDefault(g, r)
	a := Build(g, o, r)
	b := BuildFromSets(g, r, order.WReachSets(g, o, r), order.WReachSets(g, o, 2*r), 4)
	if !reflect.DeepEqual(a.Home, b.Home) || !reflect.DeepEqual(a.Centers(), b.Centers()) {
		t.Fatal("Build and BuildFromSets disagree")
	}
	for _, center := range a.Centers() {
		if !reflect.DeepEqual(a.Cluster(center), b.Cluster(center)) {
			t.Fatalf("cluster %d differs", center)
		}
	}
}

// TestBuildFromSetsManyWorkersRegression mirrors the order package's
// many-workers regression: worker counts near n must not leave nil shard
// count arrays in the cover inversion.
func TestBuildFromSetsManyWorkersRegression(t *testing.T) {
	g := gen.Grid(15, 20) // n=300
	r := 1
	o := order.ConstructDefault(g, r)
	sets2r := order.WReachSets(g, o, 2*r)
	setsR := order.WReachSets(g, o, r)
	want := BuildFromSets(g, r, setsR, sets2r, 1)
	for _, workers := range []int{97, 256, 300, 1000} {
		c := BuildFromSets(g, r, setsR, sets2r, workers)
		if !reflect.DeepEqual(want.Centers(), c.Centers()) || !reflect.DeepEqual(want.Home, c.Home) {
			t.Fatalf("workers=%d: cover differs from sequential", workers)
		}
		for _, center := range want.Centers() {
			if !reflect.DeepEqual(want.Cluster(center), c.Cluster(center)) {
				t.Fatalf("workers=%d: cluster %d differs", workers, center)
			}
		}
	}
}
