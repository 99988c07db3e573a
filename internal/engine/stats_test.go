package engine

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"bedom/internal/fault"
	"bedom/internal/gen"
	"bedom/internal/obs"
)

// TestStatsNoTornReads hammers warm cached queries concurrently with Stats
// snapshots: because Do counts a query before it runs and Stats loads cache
// hits before the query counters, no snapshot may ever report more hits than
// queries.
func TestStatsNoTornReads(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("g", gen.Grid(12, 12)); err != nil {
		t.Fatal(err)
	}
	req := Request{Graph: "g", Kind: KindDominatingSet, R: 1}
	if _, err := e.Do(context.Background(), req); err != nil {
		t.Fatal(err) // warm the domset substrate: later queries are pure hits
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Do(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		st := e.Stats()
		if st.CacheHits > st.Queries {
			close(stop)
			wg.Wait()
			t.Fatalf("torn snapshot: cache_hits=%d > queries=%d", st.CacheHits, st.Queries)
		}
	}
	close(stop)
	wg.Wait()
}

// TestStatsMatchesRegistry runs a mixed workload against an engine wired to
// an explicit registry and checks the JSON Stats and the Prometheus
// exposition agree (they read the same counters by construction).
func TestStatsMatchesRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Config{Metrics: reg})
	defer e.Close()
	if _, err := e.Register("g", gen.Grid(10, 10)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, req := range []Request{
		{Graph: "g", Kind: KindDominatingSet, R: 1},
		{Graph: "g", Kind: KindDominatingSet, R: 1},
		{Graph: "g", Kind: KindCover, R: 1},
		{Graph: "g", Kind: KindDominatingSet, R: 1, Solver: "greedy"},
	} {
		if _, err := e.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 55}}}); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Queries != 4 || st.Mutations != 1 {
		t.Fatalf("queries=%d mutations=%d, want 4/1", st.Queries, st.Mutations)
	}
	var kindTotal uint64
	for _, kc := range st.PerKind {
		kindTotal += kc.Count
	}
	if kindTotal != st.Queries {
		t.Fatalf("per-kind total %d != queries %d", kindTotal, st.Queries)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`bedom_queries_total{kind="domset",solver="paper"} 2`,
		`bedom_queries_total{kind="cover",solver=""} 1`,
		`bedom_queries_total{kind="domset",solver="greedy"} 1`,
		`bedom_mutations_total 1`,
		`# TYPE bedom_query_seconds histogram`,
		`bedom_substrate_build_seconds_count{stage="order"}`,
		`bedom_substrate_build_seconds_count{stage="wreach"}`,
		`bedom_substrate_build_seconds_count{stage="cover"}`,
		`bedom_substrate_build_seconds_count{stage="solve"}`,
		`bedom_graphs 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if st.CacheHits != e.stats.cacheHits.Value() {
		t.Fatalf("stats/registry cache-hit divergence: %d vs %d", st.CacheHits, e.stats.cacheHits.Value())
	}
}

// TestBuildTimeIsExclusive pins the exclusive build-time accounting.  A
// sticky 100ms stage hook on every order build must not show up in any
// stage's bedom_substrate_build_seconds: hook latency is not build time,
// and the solve build subtracts the nested order fetch it waited on.  The
// per-stage sums must add up to Stats().BuildMSTotal.
func TestBuildTimeIsExclusive(t *testing.T) {
	const delay = 100 * time.Millisecond
	stages := fault.NewStages(fault.StageFault{Stage: "substrate:order", Delay: delay, Sticky: true})
	e := testEngine(t, Config{StageHook: stages.Hook()})
	if _, err := e.Register("g", gen.Grid(8, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	if stages.Fired() == 0 {
		t.Fatal("the cold query fired no order hook")
	}
	var sum float64
	for _, stage := range []string{"order", "wreach", "cover", "solve"} {
		h := e.stats.buildSeconds.With(stage)
		if s := h.Sum(); s >= delay.Seconds() {
			t.Errorf("stage %s build time %.3fs includes the injected %v hook latency", stage, s, delay)
		}
		sum += h.Sum()
	}
	if got := e.Stats().BuildMSTotal; math.Abs(got-1000*sum) > 1e-3 {
		t.Fatalf("BuildMSTotal %.6fms != stage sum %.6fms", got, 1000*sum)
	}
}
