package exp

import (
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"a", "bbb"},
	}
	tbl.AddRow(1, 2.3456)
	tbl.AddRow("xyz", true)
	tbl.Notes = append(tbl.Notes, "a note")
	txt := tbl.Format()
	if !strings.Contains(txt, "EX — demo") || !strings.Contains(txt, "2.35") || !strings.Contains(txt, "note: a note") {
		t.Fatalf("format output:\n%s", txt)
	}
	md := tbl.Markdown()
	if !strings.Contains(md, "| a | bbb |") || !strings.Contains(md, "| xyz | true |") {
		t.Fatalf("markdown output:\n%s", md)
	}
}

func TestQuickConfigSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	cfg := QuickConfig()
	for _, e := range All() {
		tbl := e.Run(cfg)
		if tbl == nil || len(tbl.Rows) == 0 {
			t.Fatalf("experiment %s produced no rows", e.ID)
		}
		if tbl.ID != e.ID {
			t.Fatalf("experiment %s mislabelled as %s", e.ID, tbl.ID)
		}
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.N < 500 || len(cfg.Radii) == 0 || len(cfg.ScalingSizes) < 2 {
		t.Fatalf("default config looks wrong: %+v", cfg)
	}
	if QuickConfig().N >= cfg.N {
		t.Fatal("quick config should be smaller than the default")
	}
}

func TestE1ContainsSmallExactRows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	cfg := QuickConfig()
	cfg.Radii = []int{1}
	tbl := E1SequentialApproximation(cfg)
	foundSmall := false
	for _, row := range tbl.Rows {
		if strings.HasSuffix(row[0], "(small)") {
			foundSmall = true
			if row[len(row)-1] != "true" {
				t.Fatalf("small row not solved exactly: %v", row)
			}
		}
	}
	if !foundSmall {
		t.Fatal("E1 has no exact small-instance rows")
	}
}

// TestScaleSuiteRuns exercises the large-tier experiment at a unit-test
// size: every gated cell must report the raw snapshot variant and a
// post-restart answer identical to the pre-restart one.
func TestScaleSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	cfg := QuickConfig()
	cfg.LargeN = 3000
	cfg.Families = []string{"grid", "attach-tree"}
	for _, e := range Scale() {
		tbl := e.Run(cfg)
		if tbl == nil || tbl.ID != e.ID {
			t.Fatalf("experiment %s produced %+v", e.ID, tbl)
		}
		if len(tbl.Rows) != 2 {
			t.Fatalf("%s: family restriction ignored: %d rows\n%s", e.ID, len(tbl.Rows), tbl.Format())
		}
		for _, row := range tbl.Rows {
			raw, identical := row[4], row[len(row)-1]
			if raw != "true" || identical != "true" {
				t.Fatalf("%s: raw=%s identical=%s for row %v", e.ID, raw, identical, row)
			}
		}
	}
}
