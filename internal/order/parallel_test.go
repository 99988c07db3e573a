package order

import (
	"reflect"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// determinismWorkerCounts mirrors the worker sweep of the dist package's
// workers-determinism test: the substrate pipeline must produce
// byte-identical output for every worker count.
var determinismWorkerCounts = []int{1, 2, 8}

func determinismGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		// All above graph.MinParallelVertices so the parallel paths actually run.
		"grid":       gen.Grid(20, 20),
		"apollonian": gen.Apollonian(400, 3),
		"geometric":  mustLargest(gen.RandomGeometric(400, gen.GeometricRadiusForAvgDeg(400, 6), 5)),
	}
}

func mustLargest(g *graph.Graph) *graph.Graph {
	lc, _ := gen.LargestComponent(g)
	return lc
}

func TestWReachSetsWorkersDeterminism(t *testing.T) {
	for name, g := range determinismGraphs() {
		for _, r := range []int{1, 2, 4} {
			o := ConstructDefault(g, 2)
			base := WReachSetsWorkers(g, o, r, 1)
			for _, workers := range determinismWorkerCounts[1:] {
				got := WReachSetsWorkers(g, o, r, workers)
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("%s r=%d: WReachSets differ between 1 and %d workers", name, r, workers)
				}
			}
		}
	}
}

func TestConstructWorkersDeterminism(t *testing.T) {
	for name, g := range determinismGraphs() {
		var base Result
		for i, workers := range determinismWorkerCounts {
			opts := DefaultOptions(2)
			opts.Workers = workers
			res := Construct(g, opts)
			if i == 0 {
				base = res
				continue
			}
			if !reflect.DeepEqual(base.Order.perm, res.Order.perm) {
				t.Fatalf("%s: constructed orders differ between %d and %d workers",
					name, determinismWorkerCounts[0], workers)
			}
			if !reflect.DeepEqual(base.Rounds, res.Rounds) {
				t.Fatalf("%s: augmentation round stats differ between %d and %d workers:\n%+v\n%+v",
					name, determinismWorkerCounts[0], workers, base.Rounds, res.Rounds)
			}
			if base.Degeneracy != res.Degeneracy || base.MaxOutDegree != res.MaxOutDegree {
				t.Fatalf("%s: diagnostics differ across worker counts", name)
			}
		}
	}
}

func TestAugmentOnceWorkersDeterminism(t *testing.T) {
	g := gen.Grid(18, 18)
	base, _ := FromDegeneracy(g)
	want := OrientByOrder(g, base)
	wantRes := want.AugmentOnceWorkers(5, 1)
	for _, workers := range determinismWorkerCounts[1:] {
		d := OrientByOrder(g, base)
		res := d.AugmentOnceWorkers(5, workers)
		if res != wantRes {
			t.Fatalf("round stats differ at %d workers: %+v vs %+v", workers, res, wantRes)
		}
		for v := 0; v < d.n; v++ {
			if !reflect.DeepEqual(want.out[v], d.out[v]) {
				t.Fatalf("arcs of %d differ at %d workers", v, workers)
			}
		}
	}
}

// TestWReachSetsMatchesSequentialReference cross-checks the sharded
// implementation against a direct transcription of the sequential algorithm
// (per-source restricted BFS plus a final per-set sort).
func TestWReachSetsMatchesSequentialReference(t *testing.T) {
	g := gen.Grid(20, 20)
	o := ConstructDefault(g, 2)
	r := 4
	want := wreachSequentialReference(g, o, r)
	for _, workers := range determinismWorkerCounts {
		got := WReachSetsWorkers(g, o, r, workers)
		if len(got) != len(want) {
			t.Fatal("length mismatch")
		}
		for v := range want {
			if !reflect.DeepEqual(want[v], got[v]) {
				t.Fatalf("workers=%d: set of %d = %v, want %v", workers, v, got[v], want[v])
			}
		}
	}
}

// wreachSequentialReference is the pre-sharding implementation, kept as a
// test oracle.
func wreachSequentialReference(g *graph.Graph, o *Order, r int) [][]int {
	n := g.N()
	sets := make([][]int, n)
	for v := 0; v < n; v++ {
		sets[v] = []int{v}
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	var touched []int
	for i := 0; i < n; i++ {
		u := o.At(i)
		touched = append(touched[:0], u)
		dist[u] = 0
		for head := 0; head < len(touched); head++ {
			x := touched[head]
			if dist[x] >= r {
				continue
			}
			for _, wn := range g.Neighbors(x) {
				y := int(wn)
				if dist[y] != -1 || o.Less(y, u) {
					continue
				}
				dist[y] = dist[x] + 1
				touched = append(touched, y)
			}
		}
		for _, w := range touched {
			if w != u {
				sets[w] = append(sets[w], u)
			}
			dist[w] = -1
		}
	}
	for v := 0; v < n; v++ {
		s := sets[v]
		for a := 1; a < len(s); a++ { // insertion sort by L-position
			for b := a; b > 0 && o.Less(s[b], s[b-1]); b-- {
				s[b], s[b-1] = s[b-1], s[b]
			}
		}
	}
	return sets
}

// TestWReachSetsManyWorkersRegression pins the ParallelBlocks balanced
// partition: with workers close to n (more workers than ceil-chunked blocks
// under the old scheme), every shard slot must still be populated — the
// ceil-chunk version left trailing shards nil and the merge panicked.
func TestWReachSetsManyWorkersRegression(t *testing.T) {
	g := gen.Grid(15, 20) // n=300
	o := ConstructDefault(g, 1)
	want := WReachSetsWorkers(g, o, 2, 1)
	for _, workers := range []int{97, 256, 300, 1000} {
		got := WReachSetsWorkers(g, o, 2, workers)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: sets differ from sequential", workers)
		}
	}
}
