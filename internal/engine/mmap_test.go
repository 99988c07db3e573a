package engine

import (
	"context"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/store"
)

// TestMmapDecodeEquivalence is the zero-copy acceptance contract: an
// engine recovering a raw-aligned snapshot through the mmap path answers
// byte-identically to one forced through the allocating decode path —
// dominating sets, covers and order positions, across radii.
func TestMmapDecodeEquivalence(t *testing.T) {
	if !store.MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	cfg := Config{RawSnapshotMinEntries: 1}

	writer := openPersistent(t, dir, cfg)
	if _, err := writer.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Register("t", gen.RandomAttachmentTree(500, 11)); err != nil {
		t.Fatal(err)
	}
	writer.Close()

	// The data directory is single-owner (dir lock), so the two recovery
	// modes run sequentially: capture every answer from the mmap engine,
	// then reopen with NoMmap and compare.
	type key struct {
		graph string
		kind  Kind
		r     int
	}
	answers := map[key]*Response{}
	orders := map[key][]int{}

	mm := openPersistent(t, dir, cfg)
	st := mm.Stats()
	if st.Persist == nil || st.Persist.Recovered.MmapGraphs != 2 {
		t.Fatalf("expected 2 mmap-served graphs, stats %+v", st.Persist)
	}
	for _, name := range []string{"g", "t"} {
		for _, kind := range []Kind{KindDominatingSet, KindCover} {
			for _, r := range []int{1, 2} {
				resp, err := mm.Do(context.Background(), Request{Graph: name, Kind: kind, R: r})
				if err != nil {
					t.Fatalf("mmap %s/%s/r=%d: %v", name, kind, r, err)
				}
				answers[key{name, kind, r}] = resp
			}
		}
		orders[key{graph: name, r: 2}] = namedOrder(t, mm, name, 2).Positions()
	}
	mm.Close()

	cfg.NoMmap = true
	dec := openPersistent(t, dir, cfg)
	if st := dec.Stats(); st.Persist == nil || st.Persist.Recovered.MmapGraphs != 0 {
		t.Fatalf("NoMmap engine reported mmap graphs: %+v", st.Persist)
	}
	for _, name := range []string{"g", "t"} {
		for _, kind := range []Kind{KindDominatingSet, KindCover} {
			for _, r := range []int{1, 2} {
				want := answers[key{name, kind, r}]
				got, err := dec.Do(context.Background(), Request{Graph: name, Kind: kind, R: r})
				if err != nil {
					t.Fatalf("decode %s/%s/r=%d: %v", name, kind, r, err)
				}
				if !equalInts(got.Set, want.Set) || got.Size != want.Size ||
					got.LowerBound != want.LowerBound || got.Wcol != want.Wcol {
					t.Fatalf("%s/%s/r=%d: mmap and decode recovery diverge", name, kind, r)
				}
			}
		}
		if !equalInts(namedOrder(t, dec, name, 2).Positions(), orders[key{graph: name, r: 2}]) {
			t.Fatalf("%s: order positions diverge between mmap and decode recovery", name)
		}
	}
	dec.Close()
}

// TestMmapRecoveryThenMutate exercises the copy-on-write seam: a graph served
// from a read-only mapping must accept mutations (the dynamic overlay owns
// the writes, never the mapped CSR) and survive a further crash-recovery
// cycle that folds the delta into a fresh snapshot.
func TestMmapRecoveryThenMutate(t *testing.T) {
	if !store.MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	cfg := Config{RawSnapshotMinEntries: 1}

	writer := openPersistent(t, dir, cfg)
	if _, err := writer.Register("g", gen.Grid(24, 24)); err != nil {
		t.Fatal(err)
	}
	writer.Close()

	revived := openPersistent(t, dir, cfg)
	if st := revived.Stats(); st.Persist == nil || st.Persist.Recovered.MmapGraphs != 1 {
		t.Fatalf("expected mmap recovery, stats %+v", revived.Stats().Persist)
	}
	info, err := revived.Mutate("g", mutateTestDelta())
	if err != nil {
		t.Fatalf("mutating an mmap-served graph: %v", err)
	}
	if _, err := revived.Do(context.Background(), Request{Graph: "g", Kind: KindDominatingSet, R: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := revived.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	revived.Close()

	final := openPersistent(t, dir, cfg)
	gi, ok := final.Info("g")
	if !ok {
		t.Fatal("graph lost across mmap mutate/checkpoint cycle")
	}
	if gi.N != info.Graph.N || gi.M != info.Graph.M {
		t.Fatalf("recovered %+v, pre-crash %+v", gi, info.Graph)
	}
	final.Close()
}
