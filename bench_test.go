// Benchmarks: one target per experiment E1–E8 of DESIGN.md (regenerating the
// rows reported in EXPERIMENTS.md on a reduced workload so that
// `go test -bench=.` finishes quickly), plus micro-benchmarks of the core
// building blocks (order construction, weak reachability, Algorithm 1, the
// greedy baseline and the distributed pipelines).
package bedom

import (
	"context"
	"fmt"
	"testing"

	"bedom/internal/connect"
	"bedom/internal/cover"
	"bedom/internal/dist"
	"bedom/internal/distalgo"
	"bedom/internal/domset"
	"bedom/internal/engine"
	"bedom/internal/exp"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/order"
	"bedom/internal/solver"
)

// benchConfig is the reduced experiment configuration used by the E*
// benchmarks (the full tables in EXPERIMENTS.md are produced by
// cmd/benchrun with exp.DefaultConfig).
func benchConfig() exp.Config {
	return exp.Config{
		Seed:         1,
		N:            600,
		SmallN:       20,
		ScalingSizes: []int{256, 1024},
		Radii:        []int{1, 2},
		Families:     []string{"grid", "apollonian", "geometric"},
	}
}

func benchExperiment(b *testing.B, run func(exp.Config) *exp.Table) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := run(cfg)
		if len(tbl.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkE1SequentialApproximation(b *testing.B) {
	benchExperiment(b, exp.E1SequentialApproximation)
}

func BenchmarkE2NeighborhoodCovers(b *testing.B) {
	benchExperiment(b, exp.E2NeighborhoodCovers)
}

func BenchmarkE3DistributedRounds(b *testing.B) {
	benchExperiment(b, exp.E3DistributedRounds)
}

func BenchmarkE4DistributedQuality(b *testing.B) {
	benchExperiment(b, exp.E4DistributedQuality)
}

func BenchmarkE5ConnectedCongest(b *testing.B) {
	benchExperiment(b, exp.E5ConnectedCongest)
}

func BenchmarkE6LocalConnector(b *testing.B) {
	benchExperiment(b, exp.E6LocalConnector)
}

func BenchmarkE7PlanarLocalCDS(b *testing.B) {
	benchExperiment(b, exp.E7PlanarLocalCDS)
}

func BenchmarkE8AugmentationAblation(b *testing.B) {
	benchExperiment(b, exp.E8AugmentationAblation)
}

// --- Micro-benchmarks of the building blocks ------------------------------

func benchGraph() *graph.Graph { return gen.Grid(64, 64) } // 4096 vertices

// benchWorkerCounts is the worker sweep of the substrate micro-benchmarks;
// outputs are bit-identical across the sweep (asserted by the determinism
// tests), so the sub-benchmarks measure pure scaling.
var benchWorkerCounts = []int{1, 2, 4, 8}

func BenchmarkOrderConstruct(b *testing.B) {
	g := benchGraph()
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := order.DefaultOptions(2)
			opts.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = order.Construct(g, opts)
			}
		})
	}
}

func BenchmarkWReachSets(b *testing.B) {
	g := benchGraph()
	o := order.ConstructDefault(g, 2)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = order.WReachSetsWorkers(g, o, 4, workers)
			}
		})
	}
}

func BenchmarkCoverBuild(b *testing.B) {
	g := benchGraph()
	const r = 2
	o := order.ConstructDefault(g, r)
	sets2r := order.WReachSets(g, o, 2*r)
	setsR := order.WReachSets(g, o, r)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := cover.BuildFromSets(g, r, setsR, sets2r, workers)
				if c.NumClusters() == 0 {
					b.Fatal("empty cover")
				}
			}
		})
	}
}

// namedGraph is a benchmark input labelled by its generator family.
type namedGraph struct {
	name string
	g    *graph.Graph
}

// familyGraphs generates the largest component of grid-holes, geometric,
// outerplanar and tree graphs of the given sizes (fixed seed).
func familyGraphs(b *testing.B, sizes [4]int) []namedGraph {
	b.Helper()
	var out []namedGraph
	for i, family := range []string{"grid-holes", "geometric", "outerplanar", "tree"} {
		f, err := gen.FamilyByName(family)
		if err != nil {
			b.Fatal(err)
		}
		g, _ := gen.LargestComponent(f.Generate(sizes[i], 1))
		out = append(out, namedGraph{family, g})
	}
	return out
}

// churnGraphs returns the inputs of the load benchmark's churn workload at
// its sizes: the graphs on whose mutation path cover stats and sequential
// solves rerun after every delta.
func churnGraphs(b *testing.B) []namedGraph {
	return familyGraphs(b, [4]int{4096, 4000, 4000, 4000})
}

// distSimGraphs returns the inputs of the load benchmark's dist-sim
// workload at its sizes: the graphs its simulator queries run on.
func distSimGraphs(b *testing.B) []namedGraph {
	return familyGraphs(b, [4]int{1024, 1500, 2000, 3000})
}

// BenchmarkCoverStats measures the cover statistics of a churn query (one
// cluster-radius sweep per cluster) on one worker.
func BenchmarkCoverStats(b *testing.B) {
	for _, in := range churnGraphs(b) {
		for _, r := range []int{1, 2} {
			c := cover.Build(in.g, order.ConstructDefault(in.g, r), r)
			b.Run(fmt.Sprintf("%s/r=%d", in.name, r), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if st := c.ComputeStatsWorkers(in.g, 1); st.MaxRadius > 2*r {
						b.Fatalf("cluster radius %d > 2r", st.MaxRadius)
					}
				}
			})
		}
	}
}

// BenchmarkSequentialSolvers measures one sequential solve per registered
// strategy with its order and weak-reachability substrates prebuilt, so only
// the solver's own work (ball scans, lower bound) is timed.
func BenchmarkSequentialSolvers(b *testing.B) {
	ctx := context.Background()
	for _, in := range churnGraphs(b) {
		sub := solver.NewLocal(in.g, 1)
		for _, r := range []int{1, 2} {
			for _, name := range solver.Names() {
				s, err := solver.Get(name)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Solve(ctx, in.g, r, sub); err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("%s/r=%d/%s", in.name, r, name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res, err := s.Solve(ctx, in.g, r, sub)
						if err != nil || len(res.Set) == 0 {
							b.Fatalf("solve failed: %v", err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkDistPipelines measures the three simulator pipelines the engine
// serves (dist-domset with the paper and kubsv solvers, dist-cds) in their
// default models, each with a probe attached as every engine query has.
func BenchmarkDistPipelines(b *testing.B) {
	pipelines := []struct {
		name string
		run  func(g *graph.Graph, r int, p *dist.Probe) ([]int, error)
	}{
		{"paper", func(g *graph.Graph, r int, p *dist.Probe) ([]int, error) {
			res, err := distalgo.RunDomSet(g, r, dist.CongestBC, dist.Options{Probe: p})
			if err != nil {
				return nil, err
			}
			return res.Set, nil
		}},
		{"kubsv", func(g *graph.Graph, r int, p *dist.Probe) ([]int, error) {
			res, err := distalgo.RunKSV(g, r, dist.Local, dist.Options{Probe: p})
			if err != nil {
				return nil, err
			}
			return res.Set, nil
		}},
		{"cds", func(g *graph.Graph, r int, p *dist.Probe) ([]int, error) {
			res, err := distalgo.RunConnectedDomSet(g, r, dist.CongestBC, dist.Options{Probe: p})
			if err != nil {
				return nil, err
			}
			return res.Set, nil
		}},
	}
	for _, in := range distSimGraphs(b) {
		for _, r := range []int{1, 2} {
			for _, pl := range pipelines {
				b.Run(fmt.Sprintf("%s/r=%d/%s", in.name, r, pl.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						set, err := pl.run(in.g, r, &dist.Probe{})
						if err != nil || len(set) == 0 {
							b.Fatalf("pipeline failed: %v", err)
						}
					}
				})
			}
		}
	}
}

func BenchmarkGraphFinalize(b *testing.B) {
	edges := benchGraph().Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.New(4096)
		for _, e := range edges {
			if err := g.AddEdgeLazy(e[0], e[1]); err != nil {
				b.Fatal(err)
			}
		}
		g.Finalize()
	}
}

func BenchmarkGraphHasEdge(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		v := i % 4096
		if g.HasEdge(v, (v+1)%4096) {
			hits++
		}
	}
	_ = hits
}

func BenchmarkAlgorithmOneSequential(b *testing.B) {
	g := benchGraph()
	o := order.ConstructDefault(g, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		D := domset.AlgorithmOne(g, o, 2)
		if len(D) == 0 {
			b.Fatal("empty dominating set")
		}
	}
}

func BenchmarkGreedyBaseline(b *testing.B) {
	g := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		D := domset.Greedy(g, 2)
		if len(D) == 0 {
			b.Fatal("empty dominating set")
		}
	}
}

func BenchmarkSequentialPipelineByFamily(b *testing.B) {
	for _, name := range []string{"grid", "apollonian", "geometric", "chunglu"} {
		f, err := gen.FamilyByName(name)
		if err != nil {
			b.Fatal(err)
		}
		g, _ := gen.LargestComponent(f.Generate(2000, 1))
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := DominatingSet(g, 2)
				if err != nil || len(res.Set) == 0 {
					b.Fatal("pipeline failed")
				}
			}
		})
	}
}

func BenchmarkDistributedDomSetCongestBC(b *testing.B) {
	g := gen.Grid(40, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := distalgo.RunDomSet(g, 1, dist.CongestBC, dist.Options{})
		if err != nil || len(res.Set) == 0 {
			b.Fatal("distributed pipeline failed")
		}
	}
}

func BenchmarkDistributedConnectedCongestBC(b *testing.B) {
	g := gen.Apollonian(900, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := distalgo.RunConnectedDomSet(g, 1, dist.CongestBC, dist.Options{})
		if err != nil || len(res.Set) == 0 {
			b.Fatal("distributed pipeline failed")
		}
	}
}

func BenchmarkLocalConnector(b *testing.B) {
	g := gen.Grid(40, 40)
	o := order.ConstructDefault(g, 1)
	D := domset.AlgorithmOne(g, o, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := distalgo.RunLocalConnector(g, D, 1, dist.Options{})
		if err != nil || !connect.CheckConnected(g, res.Set, 1) {
			b.Fatal("LOCAL connector failed")
		}
	}
}

func BenchmarkLenzenPlanarMDS(b *testing.B) {
	g := gen.Grid(40, 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := distalgo.RunLenzen(g, dist.Options{})
		if err != nil || len(res.Set) == 0 {
			b.Fatal("Lenzen failed")
		}
	}
}

// BenchmarkEngineVsUncached compares repeated same-graph distance-r
// dominating set queries through the query engine (order and wcol substrates
// served from the cache after the first query) against the uncached pipeline
// the facade ran before the engine existed (order + wcol rebuilt per call).
// The ISSUE 2 acceptance bar is engine ≥ 5× faster on the warm path.
func BenchmarkEngineVsUncached(b *testing.B) {
	g := benchGraph() // 64×64 grid
	const r = 2
	b.Run("uncached-facade-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := order.ConstructDefault(g, r)
			D := domset.AlgorithmOne(g, o, r)
			_ = domset.ScatteredLowerBound(g, r, D)
			_ = order.WColMeasure(g, o, 2*r)
		}
	})
	b.Run("engine-cached", func(b *testing.B) {
		eng := engine.New(engine.Config{})
		defer eng.Close()
		req := engine.Request{G: g, Kind: engine.KindDominatingSet, R: r}
		if _, err := eng.Do(context.Background(), req); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := eng.Do(context.Background(), req)
			if err != nil || resp.Size == 0 {
				b.Fatal("engine query failed")
			}
		}
	})
}

// BenchmarkEngineBatch measures batched mixed-kind throughput on a warm
// cache, the domserved /batch serving shape.
func BenchmarkEngineBatch(b *testing.B) {
	eng := engine.New(engine.Config{})
	defer eng.Close()
	if _, err := eng.Register("g", benchGraph()); err != nil {
		b.Fatal(err)
	}
	reqs := []engine.Request{
		{Graph: "g", Kind: engine.KindDominatingSet, R: 1},
		{Graph: "g", Kind: engine.KindDominatingSet, R: 2},
		{Graph: "g", Kind: engine.KindCover, R: 1},
		{Graph: "g", Kind: engine.KindDominatingSet, R: 1, Solver: "greedy"},
	}
	for _, res := range eng.Batch(context.Background(), reqs) { // warm
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range eng.Batch(context.Background(), reqs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkSimulatorOverhead measures the raw cost of the round simulator on
// a flooding workload, which helps interpret the distributed benchmarks.
func BenchmarkSimulatorOverhead(b *testing.B) {
	g := gen.Grid(50, 50)
	o := order.Identity(g.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := distalgo.RunWReachDist(g, o, 2, dist.CongestBC, dist.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
}
