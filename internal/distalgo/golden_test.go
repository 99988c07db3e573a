package distalgo

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bedom/internal/dist"
	"bedom/internal/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

const goldenPipelinesFile = "testdata/pipelines.golden"

// goldenRecord is one pipeline run as recorded in the golden file: the
// computed set (as a size and a hash), the simulator statistics and every
// probe profile with its wall-clock durations zeroed.
type goldenRecord struct {
	Case     string            `json:"case"`
	SetSize  int               `json:"set_size"`
	SetHash  string            `json:"set_sha256"`
	Stats    any               `json:"stats"`
	Profiles []dist.RunProfile `json:"profiles"`
}

// goldenPipelines runs every distributed driver on seeded generator
// families at r ∈ {1,2,3} (RunLenzen is r = 1 only) and renders one JSON
// line per run.  The rendering depends on nothing but the protocols, so it
// is byte-identical across simulator worker counts and refactorings that
// keep every node's messages unchanged.
func goldenPipelines(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	emit := func(name string, set []int, stats any, p *dist.Probe) {
		profiles := p.Profiles()
		for i := range profiles {
			profiles[i].DurationNS = 0
			for j := range profiles[i].Rounds {
				profiles[i].Rounds[j].DurationNS = 0
			}
		}
		h := sha256.New()
		for _, v := range set {
			fmt.Fprintf(h, "%d,", v)
		}
		line, err := json.Marshal(goldenRecord{
			Case:     name,
			SetSize:  len(set),
			SetHash:  fmt.Sprintf("%x", h.Sum(nil)),
			Stats:    stats,
			Profiles: profiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	for _, fam := range []string{"grid-holes", "geometric", "outerplanar", "tree", "apollonian"} {
		f, err := gen.FamilyByName(fam)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := gen.LargestComponent(f.Generate(120, 3))
		for r := 1; r <= 3; r++ {
			runs := []struct {
				name string
				run  func(dist.Options) ([]int, any, error)
			}{
				{"RunDomSet", func(o dist.Options) ([]int, any, error) {
					res, err := RunDomSet(g, r, dist.CongestBC, o)
					if err != nil {
						return nil, nil, err
					}
					return res.Set, res.Stats, nil
				}},
				{"RunDomSetRefined", func(o dist.Options) ([]int, any, error) {
					res, err := RunDomSetRefined(g, r, dist.CongestBC, o)
					if err != nil {
						return nil, nil, err
					}
					return res.Set, res.Stats, nil
				}},
				{"RunKSV", func(o dist.Options) ([]int, any, error) {
					res, err := RunKSV(g, r, dist.Local, o)
					if err != nil {
						return nil, nil, err
					}
					return res.Set, res.Stats, nil
				}},
				{"RunConnectedDomSet", func(o dist.Options) ([]int, any, error) {
					res, err := RunConnectedDomSet(g, r, dist.CongestBC, o)
					if err != nil {
						return nil, nil, err
					}
					return res.Set, res.Stats, nil
				}},
				{"RunLocalConnector", func(o dist.Options) ([]int, any, error) {
					res, err := RunLocalConnector(g, KSVSequential(g, r), r, o)
					if err != nil {
						return nil, nil, err
					}
					return res.Set, res.Stats, nil
				}},
			}
			if r == 1 {
				runs = append(runs, struct {
					name string
					run  func(dist.Options) ([]int, any, error)
				}{"RunLenzen", func(o dist.Options) ([]int, any, error) {
					res, err := RunLenzen(g, o)
					if err != nil {
						return nil, nil, err
					}
					return res.Set, res.Stats, nil
				}})
			}
			for _, run := range runs {
				name := fmt.Sprintf("%s/%s/r=%d", run.name, fam, r)
				// Eight workers on ~120 vertices step neighbors concurrently,
				// so -race sees every protocol's buffer reuse.
				p := &dist.Probe{}
				set, stats, err := run.run(dist.Options{Workers: 8, Probe: p})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				emit(name, set, stats, p)
			}
		}
	}
	return buf.Bytes()
}

// TestPipelinesGolden pins every distributed driver's output, statistics and
// round profiles to a golden file recorded before the simulator and its
// protocols were made allocation-lean: any change in what a node sends
// shows up here.  Regenerate with `go test ./internal/distalgo -run
// TestPipelinesGolden -update` only when a protocol changes on purpose.
func TestPipelinesGolden(t *testing.T) {
	got := goldenPipelines(t)
	path := filepath.FromSlash(goldenPipelinesFile)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("golden line %d differs:\n got: %.600s\nwant: %.600s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden output has %d lines, file has %d", len(gl), len(wl))
}
