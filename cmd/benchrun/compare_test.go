package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bedom/internal/exp"
)

// writeSnapshot marshals s to a temp file and returns its path.
func writeSnapshot(t *testing.T, s snapshot) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.json")
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func baseSnapshot() snapshot {
	return snapshot{
		Schema: snapshotSchema,
		Tier:   tierQuick,
		Config: exp.QuickConfig(),
		Tables: []*exp.Table{
			{
				ID:     "E1",
				Header: []string{"family", "size", "ms"},
				Rows: [][]string{
					{"grid", "100", "12.50"},
					{"tree", "80", "3.00"},
				},
			},
		},
	}
}

// compare runs compareSnapshots between two in-memory snapshots and returns
// (output, error).
func compare(t *testing.T, base, cand snapshot, threshold float64) (string, error) {
	t.Helper()
	var out strings.Builder
	err := compareSnapshots(writeSnapshot(t, base), writeSnapshot(t, cand), threshold, &out)
	return out.String(), err
}

func TestCompareIdenticalPasses(t *testing.T) {
	out, err := compare(t, baseSnapshot(), baseSnapshot(), 0.30)
	if err != nil {
		t.Fatalf("identical snapshots: %v\n%s", err, out)
	}
	if !strings.Contains(out, "OK") {
		t.Fatalf("no OK line:\n%s", out)
	}
}

// TestCompareDriftMessage asserts the failure message carries the offending
// cell's before/after values and the header name — the satellite contract.
func TestCompareDriftMessage(t *testing.T) {
	cand := baseSnapshot()
	cand.Tables[0].Rows[0][1] = "210" // size 100 -> 210: +110% drift
	out, err := compare(t, baseSnapshot(), cand, 0.30)
	if err == nil {
		t.Fatalf("drift not caught:\n%s", out)
	}
	for _, want := range []string{"100", "210", "size", "REGRESSION", "threshold 30%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("failure message missing %q:\n%s", want, out)
		}
	}
}

func TestCompareThresholdFlag(t *testing.T) {
	cand := baseSnapshot()
	cand.Tables[0].Rows[0][2] = "17.50" // 12.50 -> 17.50: +40% drift
	if out, err := compare(t, baseSnapshot(), cand, 0.30); err == nil {
		t.Fatalf("40%% drift passed a 30%% threshold:\n%s", out)
	}
	if out, err := compare(t, baseSnapshot(), cand, 0.50); err != nil {
		t.Fatalf("40%% drift failed a 50%% threshold: %v\n%s", err, out)
	}
}

func TestCompareNoiseFloor(t *testing.T) {
	cand := baseSnapshot()
	cand.Tables[0].Rows[1][2] = "4.00" // 3 -> 4: below the magnitude-8 floor
	if out, err := compare(t, baseSnapshot(), cand, 0.30); err != nil {
		t.Fatalf("sub-floor jitter gated: %v\n%s", err, out)
	}
	cand.Tables[0].Rows[1][2] = "40.00" // 3 -> 40: small jumping large IS real
	if out, err := compare(t, baseSnapshot(), cand, 0.30); err == nil {
		t.Fatalf("small-to-large jump passed:\n%s", out)
	}
}

func TestCompareNonNumericCellsMustMatch(t *testing.T) {
	cand := baseSnapshot()
	cand.Tables[0].Rows[0][0] = "torus"
	out, err := compare(t, baseSnapshot(), cand, 0.30)
	if err == nil {
		t.Fatalf("renamed row passed:\n%s", out)
	}
	if !strings.Contains(out, "grid") || !strings.Contains(out, "torus") {
		t.Fatalf("message missing before/after strings:\n%s", out)
	}
}

func TestCompareStructuralChanges(t *testing.T) {
	// A vanished table fails.
	cand := baseSnapshot()
	cand.Tables = nil
	if _, err := compare(t, baseSnapshot(), cand, 0.30); err == nil {
		t.Fatal("vanished table passed")
	}
	// A new table is reported but not gated.
	cand = baseSnapshot()
	cand.Tables = append(cand.Tables, &exp.Table{ID: "E99", Header: []string{"x"}, Rows: [][]string{{"1"}}})
	out, err := compare(t, baseSnapshot(), cand, 0.30)
	if err != nil {
		t.Fatalf("new table gated: %v\n%s", err, out)
	}
	if !strings.Contains(out, "NEW TABLE E99") {
		t.Fatalf("new table not reported:\n%s", out)
	}
	// A schema mismatch fails before any cell comparison.
	cand = baseSnapshot()
	cand.Schema = snapshotSchema + 1
	if _, err := compare(t, baseSnapshot(), cand, 0.30); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not fatal: %v", err)
	}
	// A workload mismatch cannot be row-aligned.
	cand = baseSnapshot()
	cand.Tier = tierFull
	if _, err := compare(t, baseSnapshot(), cand, 0.30); err == nil || !strings.Contains(err.Error(), "workload") {
		t.Fatalf("workload mismatch not fatal: %v", err)
	}
}

// TestCompareTierMismatchNamesTiers asserts the workload-mismatch error
// names BOTH differing tiers — "config structs differ" gave the operator
// nothing to act on when a quick baseline met a large candidate.
func TestCompareTierMismatchNamesTiers(t *testing.T) {
	cand := baseSnapshot()
	cand.Tier = tierLarge
	_, err := compare(t, baseSnapshot(), cand, 0.30)
	if err == nil {
		t.Fatal("tier mismatch passed")
	}
	for _, want := range []string{"tier", `"quick"`, `"large"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("tier-mismatch error missing %q: %v", want, err)
		}
	}

	// Same tier, different config: still fatal, and the message names the
	// shared tier rather than a bogus mismatch.
	cand = baseSnapshot()
	cand.Config.N *= 2
	_, err = compare(t, baseSnapshot(), cand, 0.30)
	if err == nil || !strings.Contains(err.Error(), "configs differ") {
		t.Fatalf("config mismatch not fatal or unlabelled: %v", err)
	}
}

func TestCompareNaNPoisoning(t *testing.T) {
	base := baseSnapshot()
	base.Tables[0].Rows[0][2] = "NaN"
	cand := baseSnapshot()
	cand.Tables[0].Rows[0][2] = "NaN"
	// Equal NaN strings are tolerated (string equality)...
	if out, err := compare(t, base, cand, 0.30); err != nil {
		t.Fatalf("equal NaN cells gated: %v\n%s", err, out)
	}
	// ...but a numeric cell decaying to NaN is a regression.
	cand.Tables[0].Rows[0][2] = "12.50"
	if _, err := compare(t, base, cand, 0.30); err == nil {
		t.Fatal("NaN -> numeric mismatch passed")
	}
}
