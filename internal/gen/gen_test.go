package gen

import (
	"testing"
	"testing/quick"

	"bedom/internal/graph"
)

func TestPathCycleStarComplete(t *testing.T) {
	if g := Path(5); g.M() != 4 || !g.IsConnected() {
		t.Fatalf("path: %v", g)
	}
	if g := Cycle(5); g.M() != 5 || g.Degree(0) != 2 {
		t.Fatalf("cycle: %v", g)
	}
	if g := Cycle(2); g.M() != 1 {
		t.Fatalf("cycle(2): %v", g)
	}
	if g := Star(7); g.M() != 6 || g.Degree(0) != 6 {
		t.Fatalf("star: %v", g)
	}
	if g := Complete(5); g.M() != 10 {
		t.Fatalf("complete: %v", g)
	}
	for _, g := range []*graph.Graph{Path(0), Cycle(0), Star(1), Complete(1)} {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGridAndTorus(t *testing.T) {
	g := Grid(4, 5)
	if g.N() != 20 {
		t.Fatalf("grid n=%d", g.N())
	}
	// Grid edges: rows*(cols-1) + cols*(rows-1).
	if g.M() != 4*4+5*3 {
		t.Fatalf("grid m=%d", g.M())
	}
	if !g.IsConnected() || g.MaxDegree() != 4 {
		t.Fatalf("grid connectivity/degree wrong")
	}
	tor := Torus(4, 5)
	if tor.M() != 2*20 {
		t.Fatalf("torus m=%d", tor.M())
	}
	for v := 0; v < tor.N(); v++ {
		if tor.Degree(v) != 4 {
			t.Fatalf("torus vertex %d degree %d", v, tor.Degree(v))
		}
	}
	small := Torus(1, 4)
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 57, 200} {
		g := RandomTree(n, int64(n))
		if g.N() != n {
			t.Fatalf("n=%d got %d", n, g.N())
		}
		if n >= 1 && g.M() != n-1 && n > 1 {
			t.Fatalf("tree on %d vertices has %d edges", n, g.M())
		}
		if !g.IsConnected() {
			t.Fatalf("tree on %d vertices disconnected", n)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomTreeDeterministic(t *testing.T) {
	a := RandomTree(50, 7)
	b := RandomTree(50, 7)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("different sizes for same seed")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different trees")
		}
	}
	c := RandomTree(50, 8)
	same := true
	ec := c.Edges()
	for i := range ea {
		if ea[i] != ec[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trees (suspicious)")
	}
}

func TestOuterplanarProperties(t *testing.T) {
	for _, n := range []int{3, 4, 5, 10, 50, 200} {
		g := Outerplanar(n, int64(n))
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !g.IsConnected() {
			t.Fatalf("outerplanar n=%d disconnected", n)
		}
		// A maximal outerplanar graph on n ≥ 3 vertices has exactly 2n-3
		// edges and degeneracy 2.
		if n >= 3 && g.M() != 2*n-3 {
			t.Fatalf("outerplanar n=%d has m=%d, want %d", n, g.M(), 2*n-3)
		}
		if n >= 4 && g.Degeneracy() != 2 {
			t.Fatalf("outerplanar n=%d degeneracy %d", n, g.Degeneracy())
		}
	}
}

func TestApollonianProperties(t *testing.T) {
	for _, n := range []int{3, 4, 5, 20, 100, 500} {
		g := Apollonian(n, int64(n))
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// Maximal planar: m = 3n - 6 for n ≥ 3.
		if g.M() != 3*n-6 {
			t.Fatalf("apollonian n=%d m=%d want %d", n, g.M(), 3*n-6)
		}
		if !g.IsConnected() {
			t.Fatalf("apollonian n=%d disconnected", n)
		}
		if n >= 4 && g.Degeneracy() != 3 {
			t.Fatalf("apollonian n=%d degeneracy %d", n, g.Degeneracy())
		}
	}
	if g := Apollonian(2, 1); g.M() != 1 {
		t.Fatalf("apollonian fallback: %v", g)
	}
}

func TestRandomKTreeProperties(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		for _, n := range []int{k + 1, k + 2, 30, 120} {
			g := RandomKTree(n, k, int64(n*10+k))
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			// A k-tree on n > k vertices has k·n - k(k+1)/2 edges.
			want := k*n - k*(k+1)/2
			if n > k && g.M() != want {
				t.Fatalf("k=%d n=%d m=%d want %d", k, n, g.M(), want)
			}
			if !g.IsConnected() {
				t.Fatalf("k-tree disconnected (k=%d n=%d)", k, n)
			}
			if n > k+1 && g.Degeneracy() != k {
				t.Fatalf("k=%d n=%d degeneracy %d", k, n, g.Degeneracy())
			}
		}
	}
	if g := RandomKTree(3, 0, 1); g.N() != 3 {
		t.Fatalf("k<1 fallback: %v", g)
	}
}

func TestRandomGeometric(t *testing.T) {
	n := 400
	r := GeometricRadiusForAvgDeg(n, 6)
	g := RandomGeometric(n, r, 11)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := g.AvgDegree()
	if avg < 2 || avg > 12 {
		t.Fatalf("geometric average degree %.2f far from target 6", avg)
	}
	empty := RandomGeometric(10, 0, 3)
	if empty.M() != 0 {
		t.Fatal("zero radius should give no edges")
	}
	if GeometricRadiusForAvgDeg(1, 5) != 0 {
		t.Fatal("radius for single point should be 0")
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(1000, 3.0/1000, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := g.AvgDegree()
	if avg < 1.5 || avg > 4.5 {
		t.Fatalf("ER average degree %.2f far from 3", avg)
	}
	if ErdosRenyi(50, 0, 1).M() != 0 {
		t.Fatal("p=0 must give empty graph")
	}
	if ErdosRenyi(10, 1.5, 1).M() != 45 {
		t.Fatal("p>=1 must give complete graph")
	}
}

func TestChungLu(t *testing.T) {
	n := 800
	w := PowerLawWeights(n, 2.8, 20, 3)
	g := ChungLu(w, 4)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() == 0 {
		t.Fatal("Chung–Lu produced no edges")
	}
	// Expected edges ≈ Σ_{i<j} w_i w_j / Σw ≤ Σw / 2; just sanity-check the
	// graph is sparse.
	if g.AvgDegree() > 30 {
		t.Fatalf("Chung–Lu unexpectedly dense: avg degree %.1f", g.AvgDegree())
	}
	if ChungLu([]float64{0, 0, 0}, 1).M() != 0 {
		t.Fatal("zero weights must give empty graph")
	}
	uniform := make([]float64, 200)
	for i := range uniform {
		uniform[i] = 4
	}
	ug := ChungLu(uniform, 9)
	if ug.AvgDegree() < 1 || ug.AvgDegree() > 8 {
		t.Fatalf("uniform Chung–Lu average degree %.2f", ug.AvgDegree())
	}
}

func TestConfigurationModel(t *testing.T) {
	deg := BoundedDegreeSequence(500, 6, 17)
	g := ConfigurationModel(deg, 18)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > deg[v] {
			t.Fatalf("vertex %d degree %d exceeds requested %d", v, g.Degree(v), deg[v])
		}
	}
	odd := ConfigurationModel([]int{3, 1, 1}, 2) // odd sum: one stub dropped
	if err := odd.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGridWithHoles(t *testing.T) {
	g := GridWithHoles(20, 20, 0.1, 3)
	full := Grid(20, 20)
	if g.N() != full.N() {
		t.Fatal("holes must not change vertex count")
	}
	if g.M() >= full.M() {
		t.Fatal("holes must remove edges")
	}
	none := GridWithHoles(10, 10, 0, 3)
	if none.M() != Grid(10, 10).M() {
		t.Fatal("holeProb=0 must keep all edges")
	}
}

func TestFamiliesRegistry(t *testing.T) {
	fams := Families()
	if len(fams) < 8 {
		t.Fatalf("expected a rich registry, got %d families", len(fams))
	}
	seen := map[string]bool{}
	for _, f := range fams {
		if seen[f.Name] {
			t.Fatalf("duplicate family name %q", f.Name)
		}
		seen[f.Name] = true
		g := f.Generate(150, 1)
		if err := g.Validate(); err != nil {
			t.Fatalf("family %q: %v", f.Name, err)
		}
		if g.N() < 50 {
			t.Fatalf("family %q generated only %d vertices for target 150", f.Name, g.N())
		}
	}
	if _, err := FamilyByName("grid"); err != nil {
		t.Fatal(err)
	}
	if _, err := FamilyByName("no-such-family"); err == nil {
		t.Fatal("unknown family name accepted")
	}
	if len(PlanarFamilies()) < 4 {
		t.Fatal("expected several planar families")
	}
}

func TestLargestComponent(t *testing.T) {
	g := ErdosRenyi(300, 2.0/300, 9)
	lc, orig := LargestComponent(g)
	if !lc.IsConnected() {
		t.Fatal("largest component not connected")
	}
	if len(orig) != lc.N() {
		t.Fatal("orig mapping length mismatch")
	}
	conn := Grid(5, 5)
	lc2, _ := LargestComponent(conn)
	if lc2.N() != conn.N() {
		t.Fatal("largest component of connected graph should be the graph")
	}
}

// TestDegeneracyBoundsProperty: every family in the registry should produce
// graphs of modest degeneracy (the defining feature of bounded expansion at
// depth 0).  The Erdős–Rényi comparator is included but its degeneracy is
// also small at average degree 3.
func TestDegeneracyBoundsProperty(t *testing.T) {
	for _, f := range Families() {
		g := f.Generate(400, 2)
		k := g.Degeneracy()
		if k > 12 {
			t.Fatalf("family %q degeneracy %d unexpectedly large", f.Name, k)
		}
	}
}

// Property-based: generators never produce invalid graphs for random seeds.
func TestGeneratorsQuick(t *testing.T) {
	f := func(seed int64) bool {
		gs := []*graph.Graph{
			RandomTree(40, seed),
			Outerplanar(30, seed),
			Apollonian(30, seed),
			RandomKTree(30, 3, seed),
			RandomGeometric(60, 0.15, seed),
			ErdosRenyi(60, 0.05, seed),
			ConfigurationModel(BoundedDegreeSequence(40, 5, seed), seed),
		}
		for _, g := range gs {
			if err := g.Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
