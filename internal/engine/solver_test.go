package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bedom/internal/domset"
	"bedom/internal/gen"
	"bedom/internal/solver"
)

// TestMixedSolverNoCrossContamination runs every registered strategy against
// one graph and asserts that per-solver results cache independently: warm
// queries return each strategy's own set (not another's), and a mutation
// invalidates all of them at once.
func TestMixedSolverNoCrossContamination(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	cold := make(map[string]*Response)
	for _, name := range solver.Names() {
		resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Solver != name {
			t.Fatalf("response echoes solver %q, want %q", resp.Solver, name)
		}
		if !domset.Check(e.mustLookup(t, "g"), resp.Set, 2) {
			t.Fatalf("%s: invalid dominating set", name)
		}
		if name == "greedy" && !resp.CacheHit {
			t.Fatal("greedy needs no substrates; its cold query must report CacheHit")
		}
		cold[name] = resp
	}
	// The strategies are genuinely different pipelines on this instance; if
	// all sets coincided, the cross-contamination assertions below would be
	// vacuous.
	distinct := make(map[int]bool)
	for _, resp := range cold {
		distinct[resp.Size] = true
	}
	if len(distinct) < 2 {
		t.Fatal("test instance does not separate the strategies")
	}
	// Warm round: every strategy must be a result-cache hit serving its own
	// set byte-for-byte.
	for _, name := range solver.Names() {
		resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatalf("%s: warm query missed the result cache", name)
		}
		if !equalInts(resp.Set, cold[name].Set) || resp.LowerBound != cold[name].LowerBound || resp.Wcol != cold[name].Wcol {
			t.Fatalf("%s: warm result diverges from cold result", name)
		}
	}
	// The default resolves to paper and shares its cache entry.
	def, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if def.Solver != solver.DefaultName || !def.CacheHit || !equalInts(def.Set, cold["paper"].Set) {
		t.Fatalf("default solver response %+v does not alias the paper entry", def)
	}
	// Mutation invalidates every strategy's cached result.
	if _, err := e.Mutate("g", mutateTestDelta()); err != nil {
		t.Fatal(err)
	}
	// The first substrate-backed query after the mutation must rebuild (a
	// CacheHit here would mean a stale generation was served); subsequent
	// strategies legitimately reuse the freshly rebuilt order, and the
	// substrate-free ones (greedy, kubsv) report CacheHit by the legacy
	// "every substrate needed was warm" contract even on a result rebuild.
	first, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: "paper"})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("paper: served a stale result after mutation")
	}
	for _, name := range solver.Names() {
		resp, err := e.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatal(err)
		}
		if !domset.Check(e.mustLookup(t, "g"), resp.Set, 2) {
			t.Fatalf("%s: post-mutation set invalid on the new topology", name)
		}
	}
	// Per-solver counters: 3 queries per strategy; paper additionally served
	// the default query and the explicit post-mutation rebuild check.
	st := e.Stats()
	counts := make(map[string]uint64)
	for _, sc := range st.PerSolver {
		counts[sc.Solver] = sc.Count
	}
	for _, name := range solver.Names() {
		want := uint64(3)
		if name == solver.DefaultName {
			want = 5
		}
		if counts[name] != want {
			t.Fatalf("per-solver count for %q = %d, want %d (%+v)", name, counts[name], want, st.PerSolver)
		}
	}
}

// TestSolverValidation covers the request-validation policy: unknown names
// fail with ErrInvalidRequest listing the registry, non-distributed solvers
// are rejected for dist-domset, and paper-pinned kinds reject other names.
func TestSolverValidation(t *testing.T) {
	e := testEngine(t, Config{})
	g := gen.Grid(6, 6)
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDominatingSet, R: 1, Solver: "nope"}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("unknown solver: %v", err)
	} else if !strings.Contains(err.Error(), "paper") {
		t.Fatalf("unknown-solver error must list the registry: %v", err)
	}
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindDistributedDominatingSet, R: 1, Solver: "greedy"}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("non-distributed solver on dist-domset: %v", err)
	}
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: 1, Solver: "kubsv"}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("cover with non-paper solver: %v", err)
	}
	if _, err := e.Do(context.Background(), Request{G: g, Kind: "greedy", R: 1}); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("the removed greedy kind must be unknown: %v", err)
	}
	// Compatible spellings succeed.
	if _, err := e.Do(context.Background(), Request{G: g, Kind: KindCover, R: 1, Solver: "paper"}); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Do(context.Background(), Request{G: g, Kind: KindDistributedDominatingSet, R: 1, Solver: "kubsv"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Solver != "kubsv" || resp.Rounds != 7 {
		t.Fatalf("kubsv dist response %+v, want 7 rounds", resp)
	}
}
