package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bedom/internal/connect"
	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/obs"
	"bedom/internal/order"
)

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

func TestRegistry(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(8, 8)
	info, err := e.Register("grid", g)
	if err != nil || info.N != 64 || info.M != g.M() {
		t.Fatalf("Register: %+v %v", info, err)
	}
	if _, err := e.Register("", g); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if _, err := e.Register("nil", nil); err == nil {
		t.Fatal("nil graph must be rejected")
	}
	if got, ok := e.Lookup("grid"); !ok || got != g {
		t.Fatal("Lookup")
	}
	if _, ok := e.Lookup("absent"); ok {
		t.Fatal("Lookup of absent name")
	}
	if list := e.Graphs(); len(list) != 1 || list[0].Name != "grid" {
		t.Fatalf("Graphs: %+v", list)
	}
	if ok, err := e.Remove("grid"); !ok || err != nil {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	if ok, _ := e.Remove("grid"); ok {
		t.Fatal("double Remove reported ok")
	}
	if _, err := e.Do(context.Background(), Request{Graph: "grid", Kind: KindDominatingSet, R: 1}); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("query on removed graph: %v", err)
	}
}

// TestSingleFlight asserts the single-flight contract: many parallel
// identical queries build each needed substrate exactly once.
func TestSingleFlight(t *testing.T) {
	e := testEngine(t, Config{Workers: 8})
	if _, err := e.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	const parallel = 32
	var wg sync.WaitGroup
	responses := make([]*Response, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2})
			if err != nil {
				t.Error(err)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	st := e.Stats()
	// The domset pipeline needs exactly three substrates: the order for r=2,
	// wcol_4 on it, and the cached solver result.  No matter how the 32
	// queries interleave, each is built exactly once.
	if st.SubstrateBuilds != 3 {
		t.Fatalf("substrates built %d times, want 3 (stats %+v)", st.SubstrateBuilds, st)
	}
	if st.CacheHits+st.Coalesced == 0 {
		t.Fatal("expected cache hits or coalesced waits")
	}
	for i := 1; i < parallel; i++ {
		if !equalInts(responses[i].Set, responses[0].Set) {
			t.Fatal("parallel identical queries disagree")
		}
	}
}

// TestBuildConcurrencyBoundedByWorkers pins the engine's one concurrency
// bound: a substrate build runs on its query's executor worker, so no more
// than Config.Workers builds are ever in flight — and all of them can be.
func TestBuildConcurrencyBoundedByWorkers(t *testing.T) {
	var inFlight, peak atomic.Int32
	e := testEngine(t, Config{Workers: 2, StageHook: func(stage string) {
		if stage != "substrate:order" {
			return
		}
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(30 * time.Millisecond)
		inFlight.Add(-1)
	}})
	const graphs = 6
	for i := 0; i < graphs; i++ {
		if _, err := e.Register(fmt.Sprintf("g%d", i), gen.Grid(8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < graphs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Do(context.Background(), Request{Graph: fmt.Sprintf("g%d", i), Kind: KindDominatingSet, R: 1}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if got := peak.Load(); got != 2 {
		t.Fatalf("peak concurrent order builds = %d, want exactly Workers = 2", got)
	}
}

// TestLRUEviction asserts the LRU bound: the cache never exceeds its
// configured capacity, old substrates are evicted, and evicted substrates
// are rebuilt on demand.
func TestLRUEviction(t *testing.T) {
	e := testEngine(t, Config{CacheEntries: 3, Workers: 2})
	if _, err := e.Register("g", gen.Grid(12, 12)); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 4; r++ {
		if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: r}); err != nil {
			t.Fatal(err)
		}
		if n := e.cache.len(); n > 3 {
			t.Fatalf("cache holds %d entries, capacity 3", n)
		}
	}
	st := e.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions, stats %+v", st)
	}
	if st.CacheEntries > st.CacheCapacity {
		t.Fatalf("cache exceeded capacity: %+v", st)
	}
	// Re-running the earliest (evicted) query rebuilds its substrates.
	before := e.Stats().SubstrateBuilds
	if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	if after := e.Stats().SubstrateBuilds; after <= before {
		t.Fatal("evicted substrate was not rebuilt")
	}
}

// TestEngineMatchesDirectPipeline asserts byte-identical results between the
// engine (cold and warm cache) and the direct facade-style pipeline built
// straight from the internal packages.
func TestEngineMatchesDirectPipeline(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Apollonian(150, 3)
	if _, err := e.Register("g", g); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2} {
		// Direct path: exactly what api.go's DominatingSet used to run.
		o := order.ConstructDefault(g, r)
		wantD := domset.AlgorithmOne(g, o, r)
		wantLB := domset.ScatteredLowerBound(g, r, wantD)
		wantWcol := order.WColMeasure(g, o, 2*r)

		for pass, label := range []string{"cold", "warm"} {
			resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: r})
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(resp.Set, wantD) || resp.LowerBound != wantLB || resp.Wcol != wantWcol {
				t.Fatalf("r=%d %s: engine diverges from direct pipeline", r, label)
			}
			if pass == 1 && !resp.CacheHit {
				t.Fatalf("r=%d: warm query should be a cache hit", r)
			}
		}

		// Connected pipeline.
		oc := order.ConstructDefault(g, 2*r+1)
		wantDc := domset.AlgorithmOne(g, oc, r)
		wantSet := connect.Closure(g, oc, wantDc, r)
		cresp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindConnectedDominatingSet, R: r})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(cresp.Set, wantSet) || !equalInts(cresp.DomSet, wantDc) {
			t.Fatalf("r=%d: connected engine result diverges", r)
		}
	}
}

func TestCoverQuery(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(10, 10)
	resp, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := resp.CoverData()
	if c == nil || resp.Size != c.NumClusters() || resp.CoverMaxRadius > 4 {
		t.Fatalf("cover response %+v", resp)
	}
	if err := c.Verify(g); err != nil {
		t.Fatal(err)
	}
	warm, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: 2})
	if err != nil || !warm.CacheHit || warm.CoverData() != c {
		t.Fatalf("warm cover query should share the cached substrate: %+v %v", warm, err)
	}
}

func TestDistributedQuery(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(9, 9)
	resp, err := e.Do(context.Background(), Request{G: g, Kind: KindDistributedDominatingSet, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !domset.Check(g, resp.Set, 1) || resp.Rounds == 0 || resp.Messages == 0 {
		t.Fatalf("distributed response %+v", resp)
	}
	cresp, err := e.Do(context.Background(), Request{G: g, Kind: KindDistributedConnected, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !connect.CheckConnected(g, cresp.Set, 1) || len(cresp.DomSet) > len(cresp.Set) {
		t.Fatalf("distributed connected response %+v", cresp)
	}
}

func TestValidation(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(4, 4)
	cases := []Request{
		{G: g, Kind: KindDominatingSet, R: 0},
		{G: g, Kind: "nonsense", R: 1},
		{Kind: KindDominatingSet, R: 1}, // no graph
	}
	for _, req := range cases {
		if _, err := e.Do(context.Background(), req); !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("request %+v: want ErrInvalidRequest, got %v", req, err)
		}
	}
	disc, _ := graph.FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if _, err := e.Do(context.Background(), Request{G: disc, Kind: KindConnectedDominatingSet, R: 1}); err == nil {
		t.Fatal("disconnected graph must be rejected for cds")
	}
}

func TestAnonymousGraphMutationInvalidates(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(6, 6)
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	builds := e.Stats().SubstrateBuilds
	// Warm query: no new builds.
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SubstrateBuilds; got != builds {
		t.Fatalf("warm query rebuilt substrates (%d -> %d)", builds, got)
	}
	// Mutation bumps m, which retires the cached generation.
	if err := g.AddEdge(0, 35); err != nil {
		t.Fatal(err)
	}
	g.Finalize()
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SubstrateBuilds; got <= builds {
		t.Fatal("mutated graph must not be served stale substrates")
	}
}

// TestAnonymousSubstratesReleasedOnGC asserts that substrates cached for a
// facade-path graph are purged once the graph itself is collected, instead
// of occupying LRU slots until capacity churn.
func TestAnonymousSubstratesReleasedOnGC(t *testing.T) {
	e := testEngine(t, Config{})
	func() {
		g := gen.Grid(10, 10)
		if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1}); err != nil {
			t.Fatal(err)
		}
	}()
	if e.cache.len() == 0 {
		t.Fatal("expected cached substrates before collection")
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.cache.len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("substrates of a collected graph were not purged (%d left)", e.cache.len())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReRegisterPurgesCache(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("g", gen.Grid(6, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	entries := e.cache.len()
	if entries == 0 {
		t.Fatal("expected cached substrates")
	}
	if _, err := e.Register("g", gen.Grid(7, 7)); err != nil {
		t.Fatal(err)
	}
	if got := e.cache.len(); got != 0 {
		t.Fatalf("re-registration left %d stale entries", got)
	}
	resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1})
	if err != nil || resp.CacheHit {
		t.Fatalf("query after re-registration must rebuild: %+v %v", resp, err)
	}
}

// TestPurgedGenerationNotCached asserts that a substrate build finishing
// after its graph generation was purged (graph removed or re-registered
// mid-build) is returned to its waiters but not inserted into the LRU.
func TestPurgedGenerationNotCached(t *testing.T) {
	c := newSubstrateCache(8, newStatsCollector(obs.NewRegistry()))
	key := substrateKey{gen: 42, kind: kindOrder, a: 1}
	v, hit, err := c.getOrBuild(context.Background(), key, func() (any, error) {
		c.purge(42) // the graph disappears while the build runs
		return "substrate", nil
	})
	if err != nil || hit || v != "substrate" {
		t.Fatalf("getOrBuild: %v %v %v", v, hit, err)
	}
	if c.len() != 0 {
		t.Fatalf("retired-generation build was cached (%d entries)", c.len())
	}
}

func TestQueryTimeout(t *testing.T) {
	e := testEngine(t, Config{Workers: 1})
	g := gen.Grid(40, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-expired context: the query must not run
	if _, err := e.Do(ctx, Request{G: g, Kind: KindDominatingSet, R: 2}); err == nil {
		t.Fatal("cancelled context must fail the query")
	}
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 2, Timeout: time.Nanosecond}); err == nil {
		t.Fatal("nanosecond timeout must fail the query")
	}
	if ts := e.Stats().Timeouts; ts == 0 {
		t.Fatal("timeout must be counted")
	}
	// The engine still serves after timeouts.
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestBatch(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("g", gen.Grid(10, 10)); err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Graph: "g", Kind: KindDominatingSet, R: 1},
		{Graph: "g", Kind: KindDominatingSet, R: 1}, // duplicate: shares substrate
		{Graph: "g", Kind: KindCover, R: 1},
		{Graph: "missing", Kind: KindDominatingSet, R: 1},
		{Graph: "g", Kind: KindDominatingSet, R: 1, Solver: "greedy"},
	}
	results := e.Batch(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results", len(results))
	}
	for _, i := range []int{0, 1, 2, 4} {
		if results[i].Err != nil {
			t.Fatalf("entry %d failed: %v", i, results[i].Err)
		}
	}
	if !equalInts(results[0].Response.Set, results[1].Response.Set) {
		t.Fatal("duplicate batch entries disagree")
	}
	if !errors.Is(results[3].Err, ErrUnknownGraph) {
		t.Fatalf("entry 3: want ErrUnknownGraph, got %v", results[3].Err)
	}
}

func TestCloseStopsQueries(t *testing.T) {
	e := New(Config{Workers: 1})
	e.Close()
	_, err := e.Do(context.Background(), Request{G: gen.Grid(4, 4), Kind: KindDominatingSet, R: 1})
	if !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("want ErrEngineClosed, got %v", err)
	}
}

func TestOrderForSharesFacadeSubstrate(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(8, 8)
	o1, hit1, err := e.OrderFor(g, 2)
	if err != nil || hit1 {
		t.Fatalf("cold OrderFor: hit=%v err=%v", hit1, err)
	}
	o2, hit2, err := e.OrderFor(g, 2)
	if err != nil || !hit2 || o2 != o1 {
		t.Fatal("warm OrderFor must return the cached order")
	}
	// A domset query for the same radius reuses the same order substrate.
	before := e.Stats().SubstrateBuilds
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 2}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SubstrateBuilds; got != before+2 { // wcol + result; the order is reused
		t.Fatalf("domset after OrderFor built %d substrates, want 2", got-before)
	}
}

func TestParseModel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Model
	}{
		{"local", Local}, {"LOCAL", Local},
		{"congest", Congest},
		{"congest_bc", CongestBC}, {"CongestBC", CongestBC},
	} {
		m, err := ParseModel(tc.in)
		if err != nil || m != tc.want {
			t.Fatalf("ParseModel(%q) = %v, %v", tc.in, m, err)
		}
	}
	if _, err := ParseModel("telepathy"); err == nil {
		t.Fatal("unknown model must be rejected")
	}
}

// --- helpers --------------------------------------------------------------

func equalInts(a, b []int) bool {
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

// TestSubstrateWorkersDeterminism asserts that the engine serves
// bit-identical query results at every GOMAXPROCS.  Substrate builds size
// their worker pools from it, so each k runs them on k goroutines — the same
// determinism contract internal/dist enforces for its simulator pool.
func TestSubstrateWorkersDeterminism(t *testing.T) {
	g := gen.Grid(24, 24) // above the substrate parallel threshold
	type outcome struct {
		set        []int
		lb, wcol   int
		covSize    int
		covDegree  int
		covRadius  int
		covCenters []int
	}
	var base *outcome
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		e := testEngine(t, Config{})
		dom, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 2})
		if err != nil {
			t.Fatal(err)
		}
		cov, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: 1})
		if err != nil {
			t.Fatal(err)
		}
		got := &outcome{
			set: dom.Set, lb: dom.LowerBound, wcol: dom.Wcol,
			covSize: cov.Size, covDegree: cov.CoverDegree, covRadius: cov.CoverMaxRadius,
			covCenters: cov.CoverData().Centers(),
		}
		if base == nil {
			base = got
			continue
		}
		if !equalInts(base.set, got.set) || base.lb != got.lb || base.wcol != got.wcol {
			t.Fatalf("domset result differs at GOMAXPROCS=%d", procs)
		}
		if base.covSize != got.covSize || base.covDegree != got.covDegree ||
			base.covRadius != got.covRadius || !equalInts(base.covCenters, got.covCenters) {
			t.Fatalf("cover result differs at GOMAXPROCS=%d", procs)
		}
	}
}

// Lookup returns the current topology of the graph registered under name:
// the registered *Graph itself while unmutated, a materialized immutable
// snapshot after mutations.
func (e *Engine) Lookup(name string) (*graph.Graph, bool) {
	e.mu.Lock()
	ent, ok := e.graphs[name]
	e.mu.Unlock()
	if !ok {
		return nil, false
	}
	return ent.dyn.Snapshot(), true
}
