package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := MustFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip mismatch: %v vs %v", back, g)
	}
	for _, e := range g.Edges() {
		if !back.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v lost in round trip", e)
		}
	}
}

func TestReadEdgeListCommentsAndBlankLines(t *testing.T) {
	input := `# a comment
% another comment

5 3
0 1

1 2
# trailing
2 3
`
	g, err := ReadEdgeList(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 3 {
		t.Fatalf("parsed %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	// Table-driven over the malformed-line space: every case must fail, and
	// with the 1-based line number of the offending line in the message —
	// nothing is silently skipped.
	cases := []struct {
		name     string
		input    string
		wantLine string // "" when no line is attributable (empty input)
	}{
		{"empty", "", ""},
		{"only comment", "# only comment", ""},
		{"bad header", "abc", "line 1"},
		{"negative n", "-3", "line 1"},
		{"header extra fields", "3 2 junk", "line 1"},
		{"header bad edge count", "3 x", "line 1"},
		{"header negative edge count", "3 -1", "line 1"},
		{"truncated edge", "3\n0", "line 2"},
		{"edge extra fields", "3 1\n0 1 2", "line 2"},
		{"non-numeric endpoint", "3\n0 x", "line 2"},
		{"out of range", "3\n0 5", "line 2"},
		{"negative endpoint", "3\n0 -1", "line 2"},
		{"self loop", "3\n1 1", "line 2"},
		{"error after comments", "# c\n\n3 1\n0 1\n0 1 7", "line 5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadEdgeList(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("input %q: expected error", tc.input)
			}
			if tc.wantLine != "" && !strings.Contains(err.Error(), tc.wantLine) {
				t.Fatalf("input %q: error %q does not name %q", tc.input, err, tc.wantLine)
			}
		})
	}
}

// TestReadEdgeListDuplicatePolicy pins the documented policy: duplicate edge
// lines — in either orientation — collapse silently to one undirected edge,
// while self-loops always error.
func TestReadEdgeListDuplicatePolicy(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("4 5\n0 1\n0 1\n1 0\n2 3\n3 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("duplicates must collapse: got %v, want n=4 m=2", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeListLimit(t *testing.T) {
	// The bound applies to the declared n, before any allocation.
	if _, err := ReadEdgeListLimit(strings.NewReader("999999999999 0\n"), 1000); err == nil {
		t.Fatal("over-limit vertex count must be rejected")
	}
	g, err := ReadEdgeListLimit(strings.NewReader("3 1\n0 1\n"), 1000)
	if err != nil || g.N() != 3 {
		t.Fatalf("within-limit parse: %v %v", g, err)
	}
	// Limit 0 means unlimited.
	if _, err := ReadEdgeListLimit(strings.NewReader("2000 0\n"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestWriteEdgeListHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, New(3)); err != nil {
		t.Fatal(err)
	}
	g, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 0 {
		t.Fatalf("got %v", g)
	}
}

// FuzzReadEdgeListLimit feeds arbitrary documents and limits to the
// edge-list reader.  It must never panic; a successful parse must satisfy
// the graph invariants, respect the vertex limit, and round-trip through
// WriteEdgeList unchanged.  The limit is kept in 1..4096 so a document
// declaring a huge n is rejected before it can allocate.
func FuzzReadEdgeListLimit(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		maxVertices := int(limit%4096) + 1
		g, err := ReadEdgeListLimit(bytes.NewReader(data), maxVertices)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph violates invariants: %v", err)
		}
		if g.N() > maxVertices {
			t.Fatalf("parsed n=%d exceeds the limit %d", g.N(), maxVertices)
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if g2.N() != g.N() || !slices.Equal(g2.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the graph: %v -> %v", g, g2)
		}
	})
}
