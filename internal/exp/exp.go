// Package exp is the experiment harness: it generates the workloads, runs
// the algorithms and produces the tables recorded in EXPERIMENTS.md.
// Experiments E1–E8 validate the paper's quantitative claims (the paper
// itself has no empirical section, so the experiments are keyed to
// theorems; see DESIGN.md §4 for the mapping); E9 covers the persistence
// layer and E10 compares the pluggable solver strategies head to head.
package exp

import (
	"fmt"
	"strings"
)

// Table is a simple formatted result table.
type Table struct {
	// ID is the experiment identifier ("E1", "E2", ...).
	ID string
	// Title is a one-line description including the theorem being validated.
	Title string
	// Header holds the column names.
	Header []string
	// Rows holds the data, one slice of cells per row.
	Rows [][]string
	// Notes are free-form remarks appended after the table.
	Notes []string
}

// AddRow appends a row of cells (formatted with %v).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned plain text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note: %s*\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// Config controls workload sizes of the experiment suite.
type Config struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// N is the default target graph size for quality experiments.
	N int
	// SmallN is the size of instances solved exactly for true ratios.
	SmallN int
	// ScalingSizes is the n-sweep of the round-complexity experiment E3.
	ScalingSizes []int
	// Radii is the set of domination radii exercised.
	Radii []int
	// Families restricts the graph families (nil = the full registry of
	// internal/gen minus the Erdős–Rényi comparator for quality tables).
	Families []string
	// LargeN is the target size of the large-tier scale experiments (L1,
	// run by `benchrun -tier large`); the E1–E10 suite ignores it.
	LargeN int
	// TraceDir, when non-empty, makes the distributed experiments write one
	// Perfetto trace-event document per simulator run into the directory
	// (`benchrun -round-profile <dir>`).  It never affects table cells, so
	// snapshots taken with and without it stay perf-gate comparable.
	TraceDir string `json:"trace_dir,omitempty"`
}

// DefaultConfig returns the configuration used to produce EXPERIMENTS.md
// (modest sizes so that the full suite runs in a few minutes on a laptop).
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		N:            2000,
		SmallN:       28,
		ScalingSizes: []int{256, 1024, 4096, 16384},
		Radii:        []int{1, 2, 3},
		LargeN:       1_000_000,
	}
}

// QuickConfig returns a very small configuration used by unit tests of the
// harness itself.
func QuickConfig() Config {
	return Config{
		Seed:         7,
		N:            220,
		SmallN:       16,
		ScalingSizes: []int{64, 256},
		Radii:        []int{1, 2},
		Families:     []string{"grid", "apollonian", "tree"},
		LargeN:       20_000,
	}
}

// Experiment is a named experiment of the suite.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) *Table
}

// All returns the full experiment suite in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Sequential approximation quality (Theorem 5)", E1SequentialApproximation},
		{"E2", "Sparse r-neighborhood covers (Theorems 4 & 8)", E2NeighborhoodCovers},
		{"E3", "Distributed round complexity and congestion (Theorems 3 & 9)", E3DistributedRounds},
		{"E4", "Distributed vs sequential solution quality (Theorem 9)", E4DistributedQuality},
		{"E5", "Connected dominating sets in CONGEST_BC (Theorem 10)", E5ConnectedCongest},
		{"E6", "LOCAL-model connector blow-up (Lemma 16)", E6LocalConnector},
		{"E7", "Planar constant-round connected MDS (Theorem 17 + Lenzen et al.)", E7PlanarLocalCDS},
		{"E8", "Ablation: augmentation depth of the order construction", E8AugmentationAblation},
		{"E9", "Persistence codec compactness and WAL replay fidelity (internal/store)", E9PersistenceCodec},
		{"E10", "Solver strategies head to head (internal/solver registry)", E10SolverHeadToHead},
	}
}

// Scale returns the large-tier experiment list (run by benchrun -tier
// large): workloads sized by Config.LargeN instead of Config.N, exercising
// the zero-copy snapshot path at 10⁶–10⁷ vertices.  They are kept out of
// All() so the default and quick tiers stay laptop-sized.
func Scale() []Experiment {
	return []Experiment{
		{"L1", "Million-vertex cold start: raw snapshots, mmap recovery, query latency", L1ScaleColdStart},
	}
}
