package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			panic(err)
		}
	}
	g.Finalize()
	return g
}

func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	if n > 2 {
		_ = g.AddEdge(n-1, 0)
		g.Finalize()
	}
	return g
}

func completeGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			_ = g.AddEdge(i, j)
		}
	}
	g.Finalize()
	return g
}

func randomGraph(t testing.TB, n int, p float64, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				if err := g.AddEdge(i, j); err != nil {
					t.Fatalf("AddEdge(%d,%d): %v", i, j, err)
				}
			}
		}
	}
	g.Finalize()
	return g
}

func TestNewEmptyGraph(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err) // duplicate in reverse orientation must be a no-op
	}
	if g.M() != 1 {
		t.Fatalf("duplicate edge changed m: %d", g.M())
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 7); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if err := g.AddEdge(-1, 2); err == nil {
		t.Fatal("negative vertex accepted")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHasEdgeFinalizedAndNot(t *testing.T) {
	g := New(6)
	edges := [][2]int{{0, 3}, {3, 5}, {1, 2}, {2, 4}}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	check := func() {
		for _, e := range edges {
			if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
				t.Fatalf("missing edge %v (finalized=%v)", e, g.Finalized())
			}
		}
		if g.HasEdge(0, 1) || g.HasEdge(5, 5) || g.HasEdge(0, 100) {
			t.Fatal("phantom edge reported")
		}
	}
	check()
	g.Finalize()
	check()
}

func TestFromEdgesAndClone(t *testing.T) {
	g, err := FromEdges(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatalf("clone mismatch: %v vs %v", c, g)
	}
	// Mutating the clone must not affect the original.
	if err := c.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 2) {
		t.Fatal("clone mutation leaked into original")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesRejectsBadEdges(t *testing.T) {
	if _, err := FromEdges(3, [][2]int{{0, 3}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := FromEdges(3, [][2]int{{1, 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{2, 3}, {0, 1}, {1, 3}})
	edges := g.Edges()
	want := [][2]int{{0, 1}, {1, 3}, {2, 3}}
	if len(edges) != len(want) {
		t.Fatalf("got %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d: got %v want %v", i, edges[i], want[i])
		}
	}
}

func TestNeighborsSortedAfterFinalize(t *testing.T) {
	g := MustFromEdges(5, [][2]int{{0, 4}, {0, 2}, {0, 1}, {0, 3}})
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("neighbors not sorted: %v", nb)
		}
	}
	ints := g.NeighborsInts(0)
	if len(ints) != 4 || ints[0] != 1 || ints[3] != 4 {
		t.Fatalf("NeighborsInts: %v", ints)
	}
}

func TestDegreeStats(t *testing.T) {
	g := completeGraph(5)
	if g.MaxDegree() != 4 {
		t.Fatalf("max degree %d", g.MaxDegree())
	}
	if g.AvgDegree() != 4 {
		t.Fatalf("avg degree %f", g.AvgDegree())
	}
	empty := New(0)
	if empty.AvgDegree() != 0 || empty.MaxDegree() != 0 {
		t.Fatal("empty graph degree stats")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cycleGraph(6)
	sub, orig := g.InducedSubgraph([]int{0, 1, 2, 4, 4})
	if sub.N() != 4 {
		t.Fatalf("induced n=%d", sub.N())
	}
	// Edges 0-1 and 1-2 survive; 4 is isolated in the induced graph.
	if sub.M() != 2 {
		t.Fatalf("induced m=%d", sub.M())
	}
	if len(orig) != 4 || orig[0] != 0 || orig[3] != 4 {
		t.Fatalf("orig=%v", orig)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContractPartition(t *testing.T) {
	// Path 0-1-2-3-4-5 contracted into parts {0,1}, {2,3}, {4,5} gives a path
	// on 3 vertices.
	g := pathGraph(6)
	part := []int{0, 0, 1, 1, 2, 2}
	h := g.ContractPartition(part, 3)
	if h.N() != 3 || h.M() != 2 {
		t.Fatalf("contracted: %v", h)
	}
	if !h.HasEdge(0, 1) || !h.HasEdge(1, 2) || h.HasEdge(0, 2) {
		t.Fatalf("contracted edges wrong: %v", h.Edges())
	}
}

func TestBFSDistancesPath(t *testing.T) {
	g := pathGraph(6)
	d := g.BFSDistancesBounded(0, -1)
	for i := 0; i < 6; i++ {
		if d[i] != i {
			t.Fatalf("dist[%d]=%d", i, d[i])
		}
	}
	db := g.BFSDistancesBounded(0, 2)
	if db[2] != 2 || db[3] != Unreached {
		t.Fatalf("bounded distances %v", db)
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := MustFromEdges(4, [][2]int{{0, 1}, {2, 3}})
	d := g.BFSDistancesBounded(0, -1)
	if d[2] != Unreached || d[3] != Unreached {
		t.Fatalf("distances %v", d)
	}
}

func TestBall(t *testing.T) {
	g := pathGraph(7)
	ball := g.Ball(3, 2)
	want := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	if len(ball) != len(want) {
		t.Fatalf("ball %v", ball)
	}
	for _, v := range ball {
		if !want[v] {
			t.Fatalf("unexpected vertex %d in ball", v)
		}
	}
	if ball[0] != 3 {
		t.Fatalf("ball should start at the center, got %v", ball)
	}
	if got := g.Ball(3, 0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("radius-0 ball %v", got)
	}
	if got := g.Ball(3, -1); got != nil {
		t.Fatalf("negative radius ball %v", got)
	}
}

func TestEccentricity(t *testing.T) {
	g := pathGraph(5)
	if g.Eccentricity(0) != 4 {
		t.Fatalf("ecc(0)=%d", g.Eccentricity(0))
	}
	if g.Eccentricity(2) != 2 {
		t.Fatalf("ecc(2)=%d", g.Eccentricity(2))
	}
}

func TestMultiSourceDistances(t *testing.T) {
	g := pathGraph(10)
	d := g.MultiSourceDistances([]int{0, 9})
	if d[4] != 4 || d[5] != 4 || d[0] != 0 || d[9] != 0 {
		t.Fatalf("multi-source distances %v", d)
	}
	d2 := g.MultiSourceDistances(nil)
	for _, x := range d2 {
		if x != Unreached {
			t.Fatalf("no-source distances %v", d2)
		}
	}
}

func TestComponents(t *testing.T) {
	g := MustFromEdges(7, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	parts, comp := g.Components()
	if len(parts) != 4 {
		t.Fatalf("got %d components", len(parts))
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] {
		t.Fatalf("component labels %v", comp)
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !cycleGraph(5).IsConnected() {
		t.Fatal("cycle reported disconnected")
	}
	if !New(1).IsConnected() || !New(0).IsConnected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestIsConnectedSubset(t *testing.T) {
	g := cycleGraph(6)
	if !g.IsConnectedSubset([]int{0, 1, 2}) {
		t.Fatal("path subset should be connected")
	}
	if g.IsConnectedSubset([]int{0, 3}) {
		t.Fatal("antipodal pair should not be connected")
	}
	if !g.IsConnectedSubset(nil) || !g.IsConnectedSubset([]int{4}) {
		t.Fatal("empty/singleton subsets are connected by convention")
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(6)
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Fatal("union of distinct sets returned false")
	}
	if uf.Union(0, 2) {
		t.Fatal("union of same set returned true")
	}
	if uf.Find(0) != uf.Find(2) || uf.Find(0) == uf.Find(3) {
		t.Fatal("Find wrong")
	}
}

func TestDegeneracyOrderBasics(t *testing.T) {
	if _, k := pathGraph(10).DegeneracyOrder(); k != 1 {
		t.Fatalf("path degeneracy %d", k)
	}
	if _, k := cycleGraph(10).DegeneracyOrder(); k != 2 {
		t.Fatalf("cycle degeneracy %d", k)
	}
	if _, k := completeGraph(6).DegeneracyOrder(); k != 5 {
		t.Fatalf("K6 degeneracy %d", k)
	}
	if k := New(3).Degeneracy(); k != 0 {
		t.Fatalf("edgeless degeneracy %d", k)
	}
	order, _ := New(0).DegeneracyOrder()
	if order != nil {
		t.Fatal("empty graph order should be nil")
	}
}

// TestDegeneracyOrderProperty verifies the defining property of the Matula–
// Beck ordering on random graphs: when vertices are removed in order, each
// removed vertex has at most k remaining neighbors.
func TestDegeneracyOrderProperty(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(t, 60, 0.08, seed)
		order, k := g.DegeneracyOrder()
		if len(order) != g.N() {
			t.Fatalf("order misses vertices: %d", len(order))
		}
		pos := make([]int, g.N())
		seen := make([]bool, g.N())
		for i, v := range order {
			pos[v] = i
			if seen[v] {
				t.Fatalf("vertex %d repeated in order", v)
			}
			seen[v] = true
		}
		for i, v := range order {
			later := 0
			for _, w := range g.Neighbors(v) {
				if pos[int(w)] > i {
					later++
				}
			}
			if later > k {
				t.Fatalf("vertex %d has %d later neighbors, degeneracy %d", v, later, k)
			}
		}
	}
}

func TestAddEdgeLazyDedupAtFinalize(t *testing.T) {
	g := New(4)
	for i := 0; i < 3; i++ {
		if err := g.AddEdgeLazy(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdgeLazy(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdgeLazy(1, 2); err != nil {
		t.Fatal(err)
	}
	g.Finalize()
	if g.M() != 2 {
		t.Fatalf("M after dedup = %d, want 2", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 1) || g.HasEdge(0, 2) {
		t.Fatal("edge membership wrong after dedup")
	}
	if err := g.AddEdgeLazy(0, 0); err == nil {
		t.Fatal("lazy self-loop not rejected")
	}
	if err := g.AddEdgeLazy(0, 7); err == nil {
		t.Fatal("lazy out-of-range edge not rejected")
	}
}

func TestAddEdgeAfterFinalizeDefinalizes(t *testing.T) {
	g := pathGraph(4) // finalized CSR
	if !g.Finalized() {
		t.Fatal("pathGraph should be finalized")
	}
	if err := g.AddEdge(0, 1); err != nil { // duplicate: must stay finalized
		t.Fatal(err)
	}
	if !g.Finalized() || g.M() != 3 {
		t.Fatal("duplicate AddEdge should be a finalized no-op")
	}
	if err := g.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if g.Finalized() {
		t.Fatal("new edge should invalidate Finalize")
	}
	if g.M() != 4 || !g.HasEdge(0, 3) || !g.HasEdge(1, 2) {
		t.Fatal("edges lost across definalize")
	}
	g.Finalize()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 1}, {0, 3}, {1, 2}, {2, 3}}
	got := g.Edges()
	if len(got) != len(want) {
		t.Fatalf("edges = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edges = %v, want %v", got, want)
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := pathGraph(4)
	// Corrupt: rewrite a CSR target to make the adjacency asymmetric.
	g.tgt[0] = 3
	if err := g.Validate(); err == nil {
		t.Fatal("asymmetric adjacency not detected")
	}
}

func TestBitsetQuick(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 300
		b := NewBitset(n)
		ref := make(map[int]bool)
		for _, r := range raw {
			i := int(r) % n
			if ref[i] {
				b.Clear(i)
				delete(ref, i)
			} else {
				b.Set(i)
				ref[i] = true
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for _, m := range b.Members() {
			if !ref[m] {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsetSetOps(t *testing.T) {
	// Bits on both sides of the 64-bit word boundary and in a partial last
	// word.
	b := NewBitset(100)
	for _, i := range []int{3, 63, 64, 99} {
		b.Set(i)
	}
	b.Clear(3)
	b.Clear(5) // clearing an unset bit is a no-op
	if b.Count() != 3 || b.Get(3) || !b.Get(63) || !b.Get(64) || !b.Get(99) {
		t.Fatalf("members %v", b.Members())
	}
	if got := b.Members(); !slices.Equal(got, []int{63, 64, 99}) {
		t.Fatalf("members %v, want [63 64 99]", got)
	}
}

func TestIntQueue(t *testing.T) {
	q := NewIntQueue(2)
	if !q.Empty() {
		t.Fatal("new queue not empty")
	}
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for i := 0; i < 100; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("pop %d got %d", i, got)
		}
	}
	q.Push(7)
	q.Reset()
	if !q.Empty() {
		t.Fatal("reset queue not empty")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty queue should panic")
		}
	}()
	q.Pop()
}

// TestGraphQuickRandomInvariants is a property-based test: random graphs
// always validate, their edge list round-trips through Edges/FromEdges, and
// BFS distances satisfy the triangle inequality along edges.
func TestGraphQuickRandomInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(t, 40, 0.1, seed)
		if err := g.Validate(); err != nil {
			return false
		}
		g2, err := FromEdges(g.N(), g.Edges())
		if err != nil || g2.M() != g.M() {
			return false
		}
		d := g.BFSDistancesBounded(0, -1)
		for _, e := range g.Edges() {
			du, dv := d[e[0]], d[e[1]]
			if du == Unreached || dv == Unreached {
				if du != dv {
					// One endpoint reachable, the other not, across an edge:
					// impossible.
					return false
				}
				continue
			}
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
