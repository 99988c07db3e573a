package graph_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// checkBall asserts that ball is N_r[v] of g in BFS order: exactly the
// vertices BFSDistancesBounded reaches, v first, distances nondecreasing,
// and element for element the one-shot Graph.Ball.
func checkBall(t *testing.T, name string, g *graph.Graph, v, r int, ball []int) {
	t.Helper()
	if r < 0 {
		if ball != nil {
			t.Fatalf("%s: Ball(%d, %d) = %v, want nil", name, v, r, ball)
		}
		return
	}
	dist := g.BFSDistancesBounded(v, r)
	want := 0
	for _, d := range dist {
		if d >= 0 {
			want++
		}
	}
	if len(ball) != want {
		t.Fatalf("%s: Ball(%d, %d) has %d vertices, want %d", name, v, r, len(ball), want)
	}
	if ball[0] != v {
		t.Fatalf("%s: Ball(%d, %d) starts at %d", name, v, r, ball[0])
	}
	seen := make(map[int]bool, len(ball))
	for i, u := range ball {
		if dist[u] < 0 || seen[u] {
			t.Fatalf("%s: Ball(%d, %d) holds %d (dist %d, repeated %v)", name, v, r, u, dist[u], seen[u])
		}
		seen[u] = true
		if i > 0 && dist[u] < dist[ball[i-1]] {
			t.Fatalf("%s: Ball(%d, %d) is not in BFS order at position %d", name, v, r, i)
		}
	}
	if one := g.Ball(v, r); !slices.Equal(one, ball) {
		t.Fatalf("%s: walker Ball(%d, %d) = %v, Graph.Ball = %v", name, v, r, ball, one)
	}
}

func TestBallWalkerMatchesBFS(t *testing.T) {
	for _, f := range gen.Families() {
		g := f.Generate(200, 1)
		w := g.NewBallWalker()
		for v := 0; v < g.N(); v++ {
			for _, r := range []int{-1, 0, 1, 2, 3} {
				checkBall(t, f.Name, g, v, r, w.Ball(v, r))
			}
		}
	}
}

func TestBallWalkerEpochWrap(t *testing.T) {
	g := gen.Grid(12, 12)
	w := g.NewBallWalker()
	// Stamp most of the graph at epoch 1.  Without the clear on wrap, the
	// second call below (epoch 1 again) would see those stamps as visited.
	w.Ball(0, 20)
	w.SetEpoch(math.MaxUint32 - 1)
	for i, v := range []int{5, 77, 143} {
		checkBall(t, "grid", g, v, 2+i, w.Ball(v, 2+i))
	}
}

// eccentricityInduced is the reference: eccentricity of center in the
// materialised induced subgraph.
func eccentricityInduced(g *graph.Graph, center int, members []int) int {
	sub, orig := g.InducedSubgraph(members)
	return sub.Eccentricity(slices.Index(orig, center))
}

// randomConnectedSet grows a connected vertex set of up to size vertices
// from start by repeatedly adding a random neighbor of a random member.
func randomConnectedSet(g *graph.Graph, rng *rand.Rand, start, size int) []int {
	set := []int{start}
	in := map[int]bool{start: true}
	for tries := 0; len(set) < size && tries < 20*size; tries++ {
		nb := g.Neighbors(set[rng.Intn(len(set))])
		if len(nb) == 0 {
			break
		}
		if u := int(nb[rng.Intn(len(nb))]); !in[u] {
			in[u] = true
			set = append(set, u)
		}
	}
	return set
}

func TestEccentricityWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range gen.Families() {
		g := f.Generate(200, 1)
		w := g.NewBallWalker()
		for i := 0; i < 50; i++ {
			set := randomConnectedSet(g, rng, rng.Intn(g.N()), 1+rng.Intn(40))
			center := set[rng.Intn(len(set))]
			// A repeated member must not change the answer.
			members := append(slices.Clone(set), set[0])
			rng.Shuffle(len(members), func(a, b int) { members[a], members[b] = members[b], members[a] })
			if got, want := w.EccentricityWithin(center, members), eccentricityInduced(g, center, set); got != want {
				t.Fatalf("%s: EccentricityWithin(%d, %v) = %d, want %d", f.Name, center, members, got, want)
			}
		}
	}

	g := gen.Path(10)
	w := g.NewBallWalker()
	for _, tc := range []struct {
		center  int
		members []int
		want    int
	}{
		{0, []int{0, 1, 2, 3}, 3},
		{2, []int{0, 1, 2, 3}, 2},
		{4, []int{4}, 0},
		{0, []int{0, 1, 3}, -1}, // 3 is cut off from 0 inside the set
		{0, []int{0, 2}, -1},
		{5, []int{0, 1}, -1}, // center missing
		{5, nil, -1},
	} {
		if got := w.EccentricityWithin(tc.center, tc.members); got != tc.want {
			t.Errorf("EccentricityWithin(%d, %v) = %d, want %d", tc.center, tc.members, got, tc.want)
		}
	}
}
