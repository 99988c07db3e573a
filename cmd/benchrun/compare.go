package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strconv"

	"bedom/internal/exp"
)

// minComparable bounds the gate's noise floor: tiny integer metrics (a
// dominating set of size 2, a 3-round protocol) swing past any relative
// threshold from a ±1 change that means nothing.  A cell is exempt only
// when BOTH its baseline and candidate magnitudes are below this floor — a
// small value jumping large (3 → 12) is a real change and stays gated.
const minComparable = 8

// compareSnapshots loads two -json snapshots and fails (returns an error)
// when any numeric cell of any table drifts by more than threshold in
// either direction.  The experiment workloads are seeded and deterministic
// for every worker count, so two runs of the same code produce identical
// tables; drift beyond the threshold means the algorithms' outputs or costs
// actually changed — the regression the CI gate exists to catch.
func compareSnapshots(basePath, candPath string, threshold float64, w io.Writer) error {
	base, err := loadSnapshot(basePath)
	if err != nil {
		return err
	}
	cand, err := loadSnapshot(candPath)
	if err != nil {
		return err
	}
	if base.Schema != cand.Schema {
		return fmt.Errorf("schema mismatch: baseline %s has schema %d, candidate %s has %d (regenerate the baseline)",
			basePath, base.Schema, candPath, cand.Schema)
	}
	// Name the differing tier explicitly before the generic config dump: a
	// quick-vs-large mixup is the common operator error and "tier" is the
	// word the CLI flags use.
	if base.Tier != cand.Tier {
		return fmt.Errorf("workload mismatch: baseline %s ran tier %q but candidate %s ran tier %q — rerun both with the same -tier",
			basePath, base.Tier, candPath, cand.Tier)
	}
	if !reflect.DeepEqual(base.Config, cand.Config) {
		return fmt.Errorf("workload mismatch: both ran tier %q but configs differ: baseline %+v vs candidate %+v — rows cannot be aligned",
			base.Tier, base.Config, cand.Config)
	}

	baseTables := make(map[string]*exp.Table, len(base.Tables))
	for _, t := range base.Tables {
		baseTables[t.ID] = t
	}
	regressions := 0
	compared := 0
	for _, ct := range cand.Tables {
		bt, ok := baseTables[ct.ID]
		if !ok {
			fmt.Fprintf(w, "NEW TABLE %s (no baseline — not gated)\n", ct.ID)
			continue
		}
		delete(baseTables, ct.ID)
		if len(bt.Rows) != len(ct.Rows) {
			fmt.Fprintf(w, "REGRESSION %s: row count %d -> %d (an experiment instance appeared or vanished)\n",
				bt.ID, len(bt.Rows), len(ct.Rows))
			regressions++
			continue
		}
		for i := range ct.Rows {
			brow, crow := bt.Rows[i], ct.Rows[i]
			if len(brow) != len(crow) {
				fmt.Fprintf(w, "REGRESSION %s row %d: cell count %d -> %d\n", bt.ID, i, len(brow), len(crow))
				regressions++
				continue
			}
			for j := range crow {
				bv, berr := strconv.ParseFloat(brow[j], 64)
				cv, cerr := strconv.ParseFloat(crow[j], 64)
				// A NaN cell parses "successfully" but poisons every drift
				// comparison into false; demand exact string equality
				// instead of letting a corrupted metric sail through.
				if berr != nil || cerr != nil || math.IsNaN(bv) || math.IsNaN(cv) {
					// Non-numeric cells (family names, booleans) must still
					// match exactly: a flipped "exact?" or renamed row is a
					// behavior change.
					if brow[j] != crow[j] {
						fmt.Fprintf(w, "REGRESSION %s row %d %q: %q -> %q\n",
							bt.ID, i, header(bt, j), brow[j], crow[j])
						regressions++
					}
					continue
				}
				if math.Abs(bv) < minComparable && math.Abs(cv) < minComparable {
					continue
				}
				compared++
				denom := math.Max(math.Abs(bv), 1e-9)
				drift := math.Abs(cv-bv) / denom
				if drift > threshold {
					fmt.Fprintf(w, "REGRESSION %s row %d %q: %s -> %s (%+.0f%%, threshold %.0f%%)\n",
						bt.ID, i, header(bt, j), brow[j], crow[j], 100*(cv-bv)/denom, 100*threshold)
					regressions++
				}
			}
		}
	}
	for id := range baseTables {
		fmt.Fprintf(w, "REGRESSION: table %s vanished from the candidate\n", id)
		regressions++
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) vs %s (threshold %.0f%%)", regressions, basePath, 100*threshold)
	}
	fmt.Fprintf(w, "OK: %d numeric cells within %.0f%% of %s\n", compared, 100*threshold, basePath)
	return nil
}

func header(t *exp.Table, j int) string {
	if j < len(t.Header) {
		return t.Header[j]
	}
	return fmt.Sprintf("col %d", j)
}

func loadSnapshot(path string) (*snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var s snapshot
	if err := json.NewDecoder(f).Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &s, nil
}
