package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"bedom/internal/gen"
	"bedom/internal/graph"
	"bedom/internal/solver"
)

// openPersistent opens a persistent engine on dir, closing it with the test.
func openPersistent(t *testing.T, dir string, cfg Config) *Engine {
	t.Helper()
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// crash simulates process death: the engine is closed WITHOUT a checkpoint
// (Close never checkpoints), so recovery must reconstruct state from the
// registration snapshot plus the WAL alone — exactly what a kill -9 after
// the last acknowledged mutation leaves behind.
func crash(e *Engine) { e.Close() }

// TestCrashRecoveryDeterminism is the acceptance contract: an engine
// recovered from snapshot+WAL after a simulated crash answers
// byte-identically to an engine that never died — dominating sets, wcol
// values and order positions.
func TestCrashRecoveryDeterminism(t *testing.T) {
	dir := t.TempDir()

	// Engine that never dies, serving the same registration + deltas.
	undying := testEngine(t, Config{})
	if _, err := undying.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := undying.Mutate("g", mutateTestDelta()); err != nil {
		t.Fatal(err)
	}

	// Persistent engine: register, query (warming caches that must NOT
	// leak across the crash), mutate, crash.
	victim := openPersistent(t, dir, Config{})
	if _, err := victim.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2}); err != nil {
		t.Fatal(err)
	}
	preInfo, err := victim.Mutate("g", mutateTestDelta())
	if err != nil {
		t.Fatal(err)
	}
	crash(victim)

	revived := openPersistent(t, dir, Config{})
	gi, ok := revived.Info("g")
	if !ok {
		t.Fatal("graph lost in crash")
	}
	if gi.N != preInfo.Graph.N || gi.M != preInfo.Graph.M || gi.Gen != preInfo.Graph.Gen {
		t.Fatalf("recovered %+v, pre-crash %+v", gi, preInfo.Graph)
	}
	if st := revived.Stats(); st.Persist == nil || st.Persist.ReplayedRecords != 1 {
		t.Fatalf("persist stats %+v", st.Persist)
	}

	for _, kind := range []Kind{KindDominatingSet, KindCover} {
		a, err := revived.Do(context.Background(), Request{Graph: "g", Kind: kind, R: 2})
		if err != nil {
			t.Fatal(err)
		}
		b, err := undying.Do(context.Background(), Request{Graph: "g", Kind: kind, R: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(a.Set, b.Set) || a.Size != b.Size || a.LowerBound != b.LowerBound || a.Wcol != b.Wcol {
			t.Fatalf("kind=%s: recovered engine diverges from undying engine", kind)
		}
	}
	oa := namedOrder(t, revived, "g", 2)
	ob := namedOrder(t, undying, "g", 2)
	if !equalInts(oa.Positions(), ob.Positions()) {
		t.Fatal("order positions diverge after recovery")
	}
}

// TestCrashRecoveryAfterCheckpoint covers the compacted path: checkpoint
// folds the WAL into snapshots, more deltas land after it, and recovery must
// compose snapshot + post-checkpoint WAL records.
func TestCrashRecoveryAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	if _, err := e.Register("g", gen.Grid(10, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 11}}}); err != nil {
		t.Fatal(err)
	}
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Graphs != 1 || ck.SegmentsRemoved == 0 {
		t.Fatalf("checkpoint %+v", ck)
	}
	post, err := e.Mutate("g", Delta{Add: [][2]int{{0, 22}}, Remove: [][2]int{{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	crash(e)

	revived := openPersistent(t, dir, Config{})
	gi, ok := revived.Info("g")
	if !ok || gi.N != post.Graph.N || gi.M != post.Graph.M || gi.Gen != post.Graph.Gen {
		t.Fatalf("recovered %+v (ok=%v), pre-crash %+v", gi, ok, post.Graph)
	}
	st := revived.Stats()
	if st.Persist.ReplayedRecords != 1 {
		t.Fatalf("want exactly the post-checkpoint record replayed, got %+v", st.Persist)
	}
	g, _ := revived.Lookup("g")
	if !g.HasEdge(0, 11) || !g.HasEdge(0, 22) || g.HasEdge(0, 1) {
		t.Fatal("recovered topology wrong")
	}
}

// TestRecoveryskipsStaleEpochs re-registers a name (bumping its epoch) and
// crashes: the first registration's deltas must not replay onto the second
// registration's graph.
func TestRecoverySkipsStaleEpochs(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	if _, err := e.Register("g", gen.Grid(5, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 6}}}); err != nil {
		t.Fatal(err)
	}
	// Re-register: fresh epoch, fresh snapshot; the old delta is now stale.
	if _, err := e.Register("g", gen.Cycle(30)); err != nil {
		t.Fatal(err)
	}
	crash(e)

	revived := openPersistent(t, dir, Config{})
	g, ok := revived.Lookup("g")
	if !ok {
		t.Fatal("graph lost")
	}
	if g.N() != 30 || g.M() != 30 || g.HasEdge(0, 6) {
		t.Fatalf("stale delta leaked into re-registered graph: %v", g)
	}
	if st := revived.Stats(); st.Persist.SkippedRecords != 1 {
		t.Fatalf("want 1 skipped record, got %+v", st.Persist)
	}
}

func TestRemoveIsDurable(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	if _, err := e.Register("keep", gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("drop", gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate("drop", Delta{Add: [][2]int{{0, 5}}}); err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Remove("drop"); !ok || err != nil {
		t.Fatalf("Remove: %v %v", ok, err)
	}
	crash(e)

	revived := openPersistent(t, dir, Config{})
	if _, ok := revived.Info("drop"); ok {
		t.Fatal("removed graph resurrected after restart")
	}
	if _, ok := revived.Info("keep"); !ok {
		t.Fatal("unrelated graph lost")
	}
	// The orphaned delta record of the removed graph is skipped, not fatal.
	if st := revived.Stats(); st.Persist.SkippedRecords != 1 {
		t.Fatalf("persist stats %+v", st.Persist)
	}
}

func TestCheckpointWithoutStore(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Checkpoint(); !errors.Is(err, ErrNoStore) {
		t.Fatalf("want ErrNoStore, got %v", err)
	}
	if st := e.Stats(); st.Persist != nil {
		t.Fatalf("non-persistent engine reports persist stats %+v", st.Persist)
	}
}

// TestBackgroundCheckpointer exercises the interval loop: a mutation makes
// the WAL dirty, and within a few ticks the checkpointer folds it.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{CheckpointInterval: 10 * time.Millisecond})
	if _, err := e.Register("g", gen.Grid(6, 6)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Mutate("g", Delta{Add: [][2]int{{0, 7}}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := e.Stats()
		if st.Persist.Checkpoints >= 1 && st.Persist.LastCheckpointLSN >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never ran: %+v", st.Persist)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Idle ticks must not pile up further checkpoints.
	before := e.Stats().Persist.Checkpoints
	time.Sleep(50 * time.Millisecond)
	if after := e.Stats().Persist.Checkpoints; after != before {
		t.Fatalf("idle checkpoints: %d -> %d", before, after)
	}
}

// TestMutateDurability asserts the ack contract directly: every mutation
// acknowledged before the crash is present after recovery, across enough
// deltas to span several WAL batches and a mid-stream checkpoint.
func TestMutateDurability(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	base := graph.New(200)
	base.Finalize()
	if _, err := e.Register("g", base); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := e.Mutate("g", Delta{Add: [][2]int{{i, i + 100}}}); err != nil {
			t.Fatal(err)
		}
		if i == 25 {
			if _, err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	crash(e)

	revived := openPersistent(t, dir, Config{})
	g, ok := revived.Lookup("g")
	if !ok {
		t.Fatal("graph lost")
	}
	for i := 0; i < 50; i++ {
		if !g.HasEdge(i, i+100) {
			t.Fatalf("acknowledged edge {%d,%d} lost", i, i+100)
		}
	}
	if g.M() != 50 {
		t.Fatalf("m=%d, want 50", g.M())
	}
}

// TestGenerationContinuityInterleaved pins the exact-generation contract for
// the tricky interleaving: a mutation logged BEFORE a later registration
// raised the global counter must replay with its original generation, not a
// recomputed one.
func TestGenerationContinuityInterleaved(t *testing.T) {
	dir := t.TempDir()
	e := openPersistent(t, dir, Config{})
	if _, err := e.Register("a", gen.Grid(4, 4)); err != nil { // gen 1
		t.Fatal(err)
	}
	mutA, err := e.Mutate("a", Delta{Add: [][2]int{{0, 5}}}) // gen 2, WAL lsn 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("b", gen.Grid(3, 3)); err != nil { // gen 3
		t.Fatal(err)
	}
	preA, _ := e.Info("a")
	preB, _ := e.Info("b")
	if preA.Gen != mutA.Graph.Gen {
		t.Fatalf("setup: a's gen %d != mutation gen %d", preA.Gen, mutA.Graph.Gen)
	}
	crash(e)

	revived := openPersistent(t, dir, Config{})
	postA, _ := revived.Info("a")
	postB, _ := revived.Info("b")
	if postA.Gen != preA.Gen || postB.Gen != preB.Gen {
		t.Fatalf("generations not continuous: a %d->%d, b %d->%d",
			preA.Gen, postA.Gen, preB.Gen, postB.Gen)
	}
	// New work after recovery must use generations beyond everything ever
	// persisted.
	mut, err := revived.Mutate("a", Delta{Add: [][2]int{{0, 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if mut.Graph.Gen <= preB.Gen {
		t.Fatalf("post-recovery gen %d not beyond persisted max %d", mut.Graph.Gen, preB.Gen)
	}
}

// TestCrashRecoveryPerSolver asserts that crash recovery preserves
// per-solver answers: after WAL replay, every registered strategy returns
// exactly the set an engine that never died returns, and the per-solver
// cache entries rebuilt on the recovered generation stay independent.
func TestCrashRecoveryPerSolver(t *testing.T) {
	dir := t.TempDir()
	undying := testEngine(t, Config{})
	if _, err := undying.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := undying.Mutate("g", mutateTestDelta()); err != nil {
		t.Fatal(err)
	}

	victim := openPersistent(t, dir, Config{})
	if _, err := victim.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	// Warm every strategy's result cache pre-crash: none of these entries
	// may survive into the recovered generation.
	for _, name := range solver.Names() {
		if _, err := victim.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := victim.Mutate("g", mutateTestDelta()); err != nil {
		t.Fatal(err)
	}
	crash(victim)

	revived := openPersistent(t, dir, Config{})
	for _, name := range solver.Names() {
		a, err := revived.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := undying.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(a.Set, b.Set) || a.LowerBound != b.LowerBound || a.Wcol != b.Wcol {
			t.Fatalf("%s: recovered engine diverges from undying engine", name)
		}
		if a.Solver != name {
			t.Fatalf("recovered response solver %q, want %q", a.Solver, name)
		}
	}
	// Warm re-queries on the recovered engine serve per-solver hits.
	for _, name := range solver.Names() {
		resp, err := revived.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 2, Solver: name})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatalf("%s: warm post-recovery query missed the cache", name)
		}
	}
}
