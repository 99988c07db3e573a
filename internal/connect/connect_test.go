package connect

import (
	"testing"
	"testing/quick"

	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
)

func domsetFor(t *testing.T, g *graph.Graph, r int) ([]int, *order.Order) {
	t.Helper()
	o := order.ConstructDefault(g, r)
	D := domset.AlgorithmOne(g, o, r)
	if !domset.Check(g, D, r) {
		t.Fatal("setup: not a dominating set")
	}
	return D, o
}

func TestCheckConnected(t *testing.T) {
	g := gen.Path(7)
	if !CheckConnected(g, []int{2, 3, 4}, 2) {
		t.Fatal("middle segment should be a connected 2-dominating set")
	}
	if CheckConnected(g, []int{0, 6}, 3) {
		t.Fatal("disconnected set accepted")
	}
	if CheckConnected(g, []int{3}, 2) {
		t.Fatal("non-dominating set accepted")
	}
	if !CheckConnected(graph.New(0), nil, 1) {
		t.Fatal("empty graph trivially has an empty connected dominating set")
	}
	if CheckConnected(g, nil, 1) {
		t.Fatal("empty set cannot dominate a path")
	}
}

func TestClosureConnectsOnManyFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", gen.Path(40)},
		{"cycle", gen.Cycle(41)},
		{"grid", gen.Grid(9, 9)},
		{"apollonian", gen.Apollonian(100, 3)},
		{"outerplanar", gen.Outerplanar(90, 5)},
		{"ktree", gen.RandomKTree(90, 3, 7)},
		{"tree", gen.RandomTree(80, 9)},
	}
	for _, tc := range cases {
		for _, r := range []int{1, 2} {
			// Use an order built for 2r+1 as in Theorem 10.
			o := order.ConstructDefault(tc.g, 2*r+1)
			D := domset.AlgorithmOne(tc.g, o, r)
			Dp := Closure(tc.g, o, D, r)
			if !CheckConnected(tc.g, Dp, r) {
				t.Errorf("%s r=%d: closure is not a connected dominating set", tc.name, r)
			}
			if len(Dp) < len(D) {
				t.Errorf("%s r=%d: closure smaller than the input set", tc.name, r)
			}
			// Blow-up sanity: |D'| ≤ wcol_{2r+1}·(2r+2)·|D|.
			c := order.WColMeasure(tc.g, o, 2*r+1)
			if len(Dp) > c*(2*r+2)*len(D) {
				t.Errorf("%s r=%d: blow-up %d exceeds theory bound %d", tc.name, r, len(Dp), c*(2*r+2)*len(D))
			}
		}
	}
}

func TestSpanningConnector(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(8, 8)},
		{"apollonian", gen.Apollonian(80, 1)},
		{"geometric", mustConnected(gen.RandomGeometric(150, 0.15, 3))},
	} {
		for _, r := range []int{1, 2} {
			D, _ := domsetFor(t, tc.g, r)
			Dp := SpanningConnector(tc.g, D, r)
			if !CheckConnected(tc.g, Dp, r) {
				t.Errorf("%s r=%d: spanning connector output invalid", tc.name, r)
			}
			if len(Dp) > len(D)+(len(D)-1)*(2*r)+1 {
				t.Errorf("%s r=%d: size %d exceeds |D|+2r(|D|-1)", tc.name, r, len(Dp))
			}
		}
	}
	if got := SpanningConnector(gen.Path(5), nil, 1); got != nil {
		t.Fatal("empty dominating set should return nil")
	}
}

func mustConnected(g *graph.Graph) *graph.Graph {
	lc, _ := gen.LargestComponent(g)
	return lc
}

func TestDPartitionLemma14(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(7, 7)},
		{"apollonian", gen.Apollonian(70, 5)},
		{"tree", gen.RandomTree(60, 3)},
	} {
		for _, r := range []int{1, 2} {
			D, _ := domsetFor(t, tc.g, r)
			part := DPartition(tc.g, D, r, nil)
			if err := VerifyPartition(tc.g, D, r, part); err != nil {
				t.Errorf("%s r=%d: %v", tc.name, r, err)
			}
			// Every dominator must own itself.
			for i, v := range D {
				if part[v] != i {
					t.Errorf("%s r=%d: dominator %d not in its own ball", tc.name, r, v)
				}
			}
		}
	}
}

func TestDPartitionUnreachableVertices(t *testing.T) {
	g := graph.MustFromEdges(5, [][2]int{{0, 1}, {2, 3}})
	part := DPartition(g, []int{0}, 1, nil)
	if part[1] != 0 || part[0] != 0 {
		t.Fatal("component of the dominator should be owned by it")
	}
	if part[2] != -1 || part[4] != -1 {
		t.Fatal("unreachable vertices must be unassigned")
	}
	if err := VerifyPartition(g, []int{0}, 1, part); err == nil {
		t.Fatal("verification should fail when vertices are unassigned")
	}
}

// TestVerifyPartitionRejectsDisconnectedBall pins that a part its dominator
// cannot span inside the part fails verification, even when every member it
// does reach is within r.
func TestVerifyPartitionRejectsDisconnectedBall(t *testing.T) {
	g := gen.Path(3) // 0 – 1 – 2
	D := []int{0, 1}
	if err := VerifyPartition(g, D, 1, []int{0, 1, 0}); err == nil {
		t.Fatal("partition with the disconnected ball {0,2} passed verification")
	}
	if err := VerifyPartition(g, D, 1, []int{0, 1, 1}); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
}

func TestMinorFromPartitionIsConnectedAndSparse(t *testing.T) {
	g := gen.Apollonian(120, 9)
	r := 1
	D, _ := domsetFor(t, g, r)
	part := DPartition(g, D, r, nil)
	h := MinorFromPartition(g, len(D), part)
	if h.N() != len(D) {
		t.Fatalf("minor has %d vertices, want %d", h.N(), len(D))
	}
	if !h.IsConnected() {
		t.Fatal("minor of a connected graph must be connected (Lemma 15)")
	}
	// Depth-r minors of planar graphs are planar, hence density < 3.
	if d := MinorEdgeDensity(h); d >= 3 {
		t.Fatalf("planar minor density %f ≥ 3", d)
	}
}

func TestLocalConnectorLemma16(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		planar bool
	}{
		{"grid", gen.Grid(9, 9), true},
		{"apollonian", gen.Apollonian(90, 4), true},
		{"outerplanar", gen.Outerplanar(80, 8), true},
		{"ktree", gen.RandomKTree(80, 3, 2), false},
	} {
		for _, r := range []int{1, 2} {
			D, _ := domsetFor(t, tc.g, r)
			Dp := LocalConnector(tc.g, D, r, nil)
			if !CheckConnected(tc.g, Dp, r) {
				t.Errorf("%s r=%d: local connector output invalid", tc.name, r)
				continue
			}
			// Size bound of Lemma 16: |D'| ≤ 2r·|E(H(D))| + |D| and, in terms
			// of the density d of depth-r minors, ≤ (2r·d+1)·|D|.
			part := DPartition(tc.g, D, r, nil)
			h := MinorFromPartition(tc.g, len(D), part)
			if len(Dp) > 2*r*h.M()+len(D) {
				t.Errorf("%s r=%d: |D'|=%d exceeds 2r·|E(H)|+|D|=%d",
					tc.name, r, len(Dp), 2*r*h.M()+len(D))
			}
			if tc.planar {
				bound := float64((2*r*3 + 1) * len(D))
				if float64(len(Dp)) > bound {
					t.Errorf("%s r=%d: planar blow-up %d exceeds (6r+1)|D|=%.0f",
						tc.name, r, len(Dp), bound)
				}
			}
		}
	}
	if got := LocalConnector(gen.Path(5), nil, 1, nil); got != nil {
		t.Fatal("empty dominating set should return nil")
	}
}

func TestLocalConnectorSingletonDominator(t *testing.T) {
	g := gen.Star(10)
	D := []int{0}
	Dp := LocalConnector(g, D, 1, nil)
	if len(Dp) != 1 || Dp[0] != 0 {
		t.Fatalf("single dominator should stay alone, got %v", Dp)
	}
	Dc := Closure(g, order.ConstructDefault(g, 3), D, 1)
	if !CheckConnected(g, Dc, 1) {
		t.Fatal("closure of a single dominator must remain valid")
	}
}

func TestPathHelpers(t *testing.T) {
	g := gen.Cycle(8)
	ids := make([]int, 8)
	for i := range ids {
		ids[i] = i
	}
	distTo3 := g.BFSDistancesBounded(3, 8)
	p := lexMinPathUsingDist(g, 7, 3, distTo3, ids)
	if len(p) != 5 || p[0] != 7 || p[len(p)-1] != 3 {
		t.Fatalf("lex path %v", p)
	}
	// Both directions around the cycle have length 4; the lexicographically
	// smaller one goes through smaller ids.
	q := lexMinPathUsingDist(g, 7, 3, distTo3, ids)
	if !pathEqual(p, q) {
		t.Fatal("lex path not deterministic")
	}
	if !pathLess([]int{1, 2}, []int{1, 2, 3}, ids) {
		t.Fatal("shorter path must be smaller")
	}
	if !pathLess([]int{1, 2, 4}, []int{1, 3, 0}, ids) {
		t.Fatal("lexicographic comparison wrong")
	}
	if pathLess([]int{1, 2}, []int{1, 2}, ids) {
		t.Fatal("equal paths are not less")
	}
}

func pathEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property test: on random connected geometric graphs both connectors always
// produce valid connected distance-r dominating sets containing D.
func TestConnectorsQuick(t *testing.T) {
	f := func(seed int64) bool {
		g, _ := gen.LargestComponent(gen.RandomGeometric(90, 0.18, seed))
		if g.N() < 10 {
			return true
		}
		r := 1 + int(uint(seed)%2)
		o := order.ConstructDefault(g, 2*r+1)
		D := domset.AlgorithmOne(g, o, r)
		inD := map[int]bool{}
		for _, v := range D {
			inD[v] = true
		}
		for _, Dp := range [][]int{
			Closure(g, o, D, r),
			SpanningConnector(g, D, r),
			LocalConnector(g, D, r, nil),
		} {
			if !CheckConnected(g, Dp, r) {
				return false
			}
			got := map[int]bool{}
			for _, v := range Dp {
				got[v] = true
			}
			for v := range inD {
				if !got[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
