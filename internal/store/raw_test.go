package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// rawRoundTrip encodes g in the raw-aligned variant and decodes it back
// through the allocating fallback path.
func rawRoundTrip(t *testing.T, meta SnapshotMeta, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshotRaw(&buf, meta, g); err != nil {
		t.Fatalf("encode raw: %v", err)
	}
	gotMeta, back, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatalf("decode raw: %v", err)
	}
	if gotMeta != meta {
		t.Fatalf("meta round trip: got %+v, want %+v", gotMeta, meta)
	}
	assertBitIdentical(t, g, back)
	return back
}

func TestSnapshotRawRoundTrip(t *testing.T) {
	for _, fam := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", gen.Grid(20, 20)},
		{"tree", gen.RandomTree(300, 5)},
		{"apollonian", gen.Apollonian(150, 2)},
	} {
		rawRoundTrip(t, SnapshotMeta{Name: fam.name, Epoch: 2, CoveredLSN: 11, Gen: 7}, fam.g)
	}
}

func TestSnapshotRawRoundTripEmptyAndIsolated(t *testing.T) {
	empty := graph.New(0)
	empty.Finalize()
	rawRoundTrip(t, SnapshotMeta{Name: "empty"}, empty)

	isolated := graph.New(100)
	isolated.Finalize()
	rawRoundTrip(t, SnapshotMeta{Name: "isolated"}, isolated)
}

// TestSnapshotRawMatchesVarint pins the two formats to the same graph: a raw
// document and a varint document of the same snapshot decode to bit-identical
// CSR arrays and equal meta.
func TestSnapshotRawMatchesVarint(t *testing.T) {
	g := gen.Grid(17, 23)
	meta := SnapshotMeta{Name: "cross", Epoch: 4, Gen: 9}
	var rawBuf, varBuf bytes.Buffer
	if err := EncodeSnapshotRaw(&rawBuf, meta, g); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(&varBuf, meta, g); err != nil {
		t.Fatal(err)
	}
	rm, rg, err := DecodeSnapshot(&rawBuf)
	if err != nil {
		t.Fatal(err)
	}
	vm, vg, err := DecodeSnapshot(&varBuf)
	if err != nil {
		t.Fatal(err)
	}
	if rm != vm {
		t.Fatalf("meta differs across formats: %+v vs %+v", rm, vm)
	}
	assertBitIdentical(t, vg, rg)
}

// TestRawSectionAlignment verifies the encoder's padding contract: the
// OFFSETS and TARGETS payloads start at file offsets that are multiples of
// rawAlign, for a sweep of graph sizes (the META section length varies with
// the name and counts, so alignment must hold for any prefix length).
func TestRawSectionAlignment(t *testing.T) {
	for _, name := range []string{"", "g", "a-much-longer-graph-name-that-shifts-the-meta-section"} {
		for n := 0; n < 12; n++ {
			g := gen.Path(n + 2)
			var buf bytes.Buffer
			if err := EncodeSnapshotRaw(&buf, SnapshotMeta{Name: name}, g); err != nil {
				t.Fatal(err)
			}
			_, rawOff, rawTgt, err := parseRawSnapshot(buf.Bytes())
			if err != nil {
				t.Fatalf("name %q n %d: %v", name, g.N(), err)
			}
			data := buf.Bytes()
			offAt, tgtAt := -1, -1
			for i := range data {
				if len(rawOff) > 0 && &data[i] == &rawOff[0] {
					offAt = i
				}
				if len(rawTgt) > 0 && &data[i] == &rawTgt[0] {
					tgtAt = i
				}
			}
			if len(rawOff) > 0 && (offAt < 0 || offAt%rawAlign != 0) {
				t.Fatalf("name %q n %d: offsets payload at %d, not %d-aligned", name, g.N(), offAt, rawAlign)
			}
			if len(rawTgt) > 0 && (tgtAt < 0 || tgtAt%rawAlign != 0) {
				t.Fatalf("name %q n %d: targets payload at %d, not %d-aligned", name, g.N(), tgtAt, rawAlign)
			}
		}
	}
}

// TestDecodeSnapshotRawCorruption mirrors the varint suite: flipping any
// single byte of a raw document must fail the decode — every section,
// padding included, is CRC-covered and the header is matched literally.
func TestDecodeSnapshotRawCorruption(t *testing.T) {
	g := gen.Grid(6, 6)
	var buf bytes.Buffer
	if err := EncodeSnapshotRaw(&buf, SnapshotMeta{Name: "g", Epoch: 1, Gen: 1}, g); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for i := range blob {
		corrupt := append([]byte(nil), blob...)
		corrupt[i] ^= 0xFF
		if meta, back, err := DecodeSnapshot(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("byte %d: corrupted raw snapshot decoded without error (meta %+v, n=%d)", i, meta, back.N())
		}
		// The zero-copy parser must reject the same corruption.
		if _, _, _, err := parseRawSnapshot(corrupt); err == nil {
			t.Fatalf("byte %d: corrupted raw snapshot parsed for mmap without error", i)
		}
	}
}

func TestDecodeSnapshotRawTruncation(t *testing.T) {
	g := gen.Grid(5, 5)
	var buf bytes.Buffer
	if err := EncodeSnapshotRaw(&buf, SnapshotMeta{Name: "g"}, g); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		if _, _, err := DecodeSnapshot(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(blob))
		}
		if _, _, _, err := parseRawSnapshot(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d parsed for mmap without error", cut, len(blob))
		}
	}
}

// TestParseRawSnapshotRejectsVarint pins the fallback signal: a varint-format
// document is not corrupt, it is just not mappable.
func TestParseRawSnapshotRejectsVarint(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, SnapshotMeta{Name: "v"}, gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := parseRawSnapshot(buf.Bytes())
	if !errors.Is(err, ErrNotMmapable) {
		t.Fatalf("varint document: got %v, want ErrNotMmapable", err)
	}
}

func writeRawFile(t *testing.T, g *graph.Graph, meta SnapshotMeta) string {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSnapshotRaw(&buf, meta, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.raw")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMmapSnapshotEquivalence(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	g := gen.Grid(40, 40)
	meta := SnapshotMeta{Name: "mm", Epoch: 3, CoveredLSN: 5, Gen: 8}
	path := writeRawFile(t, g, meta)

	gotMeta, mg, mapping, err := OpenMmapSnapshot(path)
	if err != nil {
		t.Fatalf("OpenMmapSnapshot: %v", err)
	}
	defer mapping.Close()
	if gotMeta != meta {
		t.Fatalf("meta: got %+v, want %+v", gotMeta, meta)
	}
	assertBitIdentical(t, g, mg)
	if mapping.Size() == 0 {
		t.Fatal("mapping bookkeeping: size 0")
	}
}

func TestOpenMmapSnapshotFallsBackOnVarint(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, SnapshotMeta{Name: "v"}, gen.Grid(4, 4)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.varint")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenMmapSnapshot(path); !errors.Is(err, ErrNotMmapable) {
		t.Fatalf("got %v, want ErrNotMmapable", err)
	}
}

// TestMmapColdOpenAllocationIndependentOfM is the acceptance-criteria
// assertion: opening a snapshot via mmap allocates heap bytes independent of
// the graph's size, while the decode path allocates at least the CSR arrays.
func TestMmapColdOpenAllocationIndependentOfM(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	small := gen.Grid(40, 40)   // n = 1 600
	large := gen.Grid(320, 320) // n = 102 400, 64× the entries
	smallPath := writeRawFile(t, small, SnapshotMeta{Name: "s"})
	largePath := writeRawFile(t, large, SnapshotMeta{Name: "l"})

	allocBytes := func(path string) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, g, m, err := OpenMmapSnapshot(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		runtime.ReadMemStats(&after)
		if g.N() == 0 {
			t.Fatal("empty graph")
		}
		m.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	smallAlloc := allocBytes(smallPath)
	largeAlloc := allocBytes(largePath)

	off, tgt := large.CSR()
	rawArrayBytes := uint64(4 * (len(off) + len(tgt)))
	if largeAlloc >= rawArrayBytes/8 {
		t.Fatalf("mmap cold open allocated %d bytes for a graph whose CSR arrays are %d bytes — not zero-copy", largeAlloc, rawArrayBytes)
	}
	// 64× the entries must not mean 64× the allocation; allow generous slack
	// for runtime noise, the point is the absence of O(m) scaling.
	if largeAlloc > 8*smallAlloc+4096 {
		t.Fatalf("mmap cold open scales with m: %d bytes (small) vs %d bytes (64× larger graph)", smallAlloc, largeAlloc)
	}
}

// TestStoreRecoversViaMmap drives the whole store path: a raw snapshot saved
// through SaveSnapshot is recovered zero-copy by a Mmap-enabled Open, the
// recovery stats say so, and the graphs answer identically to a decode-path
// recovery of the same directory.
func TestStoreRecoversViaMmap(t *testing.T) {
	if !MmapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	g := gen.Grid(30, 30)
	open := func(mmap bool) (*Store, *Recovery) {
		t.Helper()
		s, rec, err := Open(dir, Options{Mmap: mmap, RawSnapshotMinEntries: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s, rec
	}
	s, _ := open(false)
	if err := s.SaveSnapshot(SnapshotMeta{Name: "g", Epoch: 1, Gen: 1}, g); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().SnapshotsRaw; got != 1 {
		t.Fatalf("SnapshotsRaw = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	sm, recM := open(true)
	if len(recM.Graphs) != 1 {
		t.Fatalf("recovered %d graphs, want 1", len(recM.Graphs))
	}
	st := sm.Stats()
	if st.Recovered.MmapGraphs != 1 || st.Recovered.MmapBytes == 0 {
		t.Fatalf("recovery not zero-copy: %+v", st.Recovered)
	}
	assertBitIdentical(t, g, recM.Graphs[0].Graph)
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sm.ReleaseMappings(); err != nil {
		t.Fatal(err)
	}

	sd, recD := open(false)
	defer sd.Close()
	if sd.Stats().Recovered.MmapGraphs != 0 {
		t.Fatal("decode-path recovery reported mmap graphs")
	}
	assertBitIdentical(t, g, recD.Graphs[0].Graph)
}
