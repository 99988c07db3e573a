package gen

import "testing"

func TestRandomAttachmentTreeIsTree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 57, 2000} {
		g := RandomAttachmentTree(n, int64(n))
		if g.N() != n {
			t.Fatalf("n=%d got %d", n, g.N())
		}
		if n > 1 && g.M() != n-1 {
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

func TestRandomAttachmentTreeDeterministic(t *testing.T) {
	a := RandomAttachmentTree(300, 7)
	b := RandomAttachmentTree(300, 7)
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed produced different trees")
		}
	}
	c := RandomAttachmentTree(300, 8)
	same := true
	for i, e := range c.Edges() {
		if ea[i] != e {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical trees (suspicious)")
	}
}

func TestLargeFamilies(t *testing.T) {
	fams := LargeFamilies()
	if len(fams) == 0 {
		t.Fatal("empty large-tier registry")
	}
	seen := map[string]bool{}
	for _, f := range fams {
		if seen[f.Name] {
			t.Fatalf("duplicate family %q", f.Name)
		}
		seen[f.Name] = true
		g := f.Generate(500, 1)
		if g.N() == 0 || g.N() > 600 {
			t.Fatalf("%s: generated %d vertices for target 500", f.Name, g.N())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
	for _, want := range []string{"grid", "torus", "geometric", "config", "attach-tree"} {
		if !seen[want] {
			t.Fatalf("large-tier registry missing %q", want)
		}
	}
}
