package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"bedom/internal/gen"
	"bedom/internal/graph"
)

// graphSpec names one input graph of a workload: a generator family and an
// approximate vertex count, or the declaration-reference graph of a seeded
// sample of the Go standard library ("go-decls").  Family names stay inside
// the benchmark; the daemon only ever receives edge lists.
type graphSpec struct {
	Family string
	N      int
}

// workload is one traffic mix.  Rate and Limit are part of the benchmark's
// contract (see BENCHMARK.json): arrivals are evenly spaced at Rate per
// second, and an operation counts toward goodput only if it succeeds within
// Limit of its intended send time.
type workload struct {
	Name   string
	Rate   float64
	Limit  time.Duration
	Graphs []graphSpec
	// Persist runs the daemon with -data-dir (WAL + snapshots).
	Persist bool
	// Lanes > 1 pins every graph to one lane (graph index mod Lanes), each
	// lane served by its own connection in schedule order, so no mutation
	// and query of the same graph are ever in flight together.  Lanes == 1
	// lets every connection take the next due operation.
	Lanes int
}

// conns is the number of client connections (and worker goroutines) the
// load generator uses: nproc on the 2-vCPU machines the benchmark targets.
const conns = 2

// workloads returns the benchmark's traffic mixes; scale shrinks graph
// sizes (for smoke tests), never rates.
//
// Rates and limits are set from measurements (README.md, "Rates and
// limits").  Each rate loads the daemon's one core to about half:
// rate ≈ 0.5 / cpu_ms_per_op, with cpu_ms_per_op measured at that rate
// (0.46 ms, 20 ms and 39.5 ms).  Each limit is five times the median over
// five seeds of the workload's reported tail latency at its rate (p99.9
// 28 ms, p90 97 ms and p90 78.5 ms), rounded up to 10 ms.
func workloads(scale float64) map[string]workload {
	sz := func(n int) int { return max(16, int(float64(n)*scale)) }
	return map[string]workload{
		"serve-warm": {
			Name:  "serve-warm",
			Rate:  1000,
			Limit: 150 * time.Millisecond,
			Graphs: []graphSpec{
				{"grid-holes", sz(3600)}, {"geometric", sz(3000)},
				{"outerplanar", sz(3000)}, {"tree", sz(3000)},
				{"go-decls", sz(1500)},
			},
			Lanes: 1,
		},
		"churn": {
			Name:  "churn",
			Rate:  24,
			Limit: 490 * time.Millisecond,
			Graphs: []graphSpec{
				{"grid-holes", sz(4096)}, {"geometric", sz(4000)},
				{"outerplanar", sz(4000)}, {"tree", sz(4000)},
			},
			Persist: true,
			Lanes:   2,
		},
		"dist-sim": {
			Name:  "dist-sim",
			Rate:  12,
			Limit: 400 * time.Millisecond,
			Graphs: []graphSpec{
				{"grid-holes", sz(1024)}, {"geometric", sz(1500)},
				{"outerplanar", sz(2000)}, {"tree", sz(3000)},
			},
			Lanes: 1,
		},
	}
}

// benchGraph is one generated input: the benchmark's own copy of the
// topology it registers with the daemon.
type benchGraph struct {
	Name  string // name registered with the daemon ("g0", "g1", ...)
	Spec  graphSpec
	N     int
	Edges [][2]int
}

// subSeed derives an independent, reproducible stream for input i.
func subSeed(seed uint64, stream string, i int) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h+uint64(i)))
}

// makeGraphs generates a workload's inputs from the seed.  Every graph is
// restricted to its largest component (connected-domination queries need a
// connected graph) and relabelled 0..n-1.
func makeGraphs(w workload, seed uint64, goroot string) ([]*benchGraph, error) {
	out := make([]*benchGraph, len(w.Graphs))
	for i, spec := range w.Graphs {
		rng := subSeed(seed, "graph", i)
		var g *graph.Graph
		if spec.Family == "go-decls" {
			var err error
			if g, err = goDeclGraph(goroot, rng, spec.N); err != nil {
				return nil, err
			}
		} else {
			f, err := gen.FamilyByName(spec.Family)
			if err != nil {
				return nil, err
			}
			g = f.Generate(spec.N, rng.Int64())
		}
		g, _ = gen.LargestComponent(g)
		out[i] = &benchGraph{Name: "g" + strconv.Itoa(i), Spec: spec, N: g.N(), Edges: g.Edges()}
	}
	return out, nil
}

// edgeListBody renders the text/plain edge-list document of POST /graphs.
func (bg *benchGraph) edgeListBody() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d %d\n", bg.N, len(bg.Edges))
	for _, e := range bg.Edges {
		fmt.Fprintf(&b, "%d %d\n", e[0], e[1])
	}
	return b.Bytes()
}

// ndjsonBody renders the application/x-ndjson streaming-ingest document.
func (bg *benchGraph) ndjsonBody() []byte {
	var b bytes.Buffer
	hdr, _ := json.Marshal(map[string]any{"name": bg.Name, "n": bg.N})
	b.Write(hdr)
	b.WriteByte('\n')
	for _, e := range bg.Edges {
		fmt.Fprintf(&b, "[%d,%d]\n", e[0], e[1])
	}
	return b.Bytes()
}

// goDeclGraph builds a declaration-reference graph of standard-library
// packages under goroot/src.  The seed picks a start package; packages are
// then taken breadth-first along their imports until at least target
// declarations are collected, so the sample references itself.  Vertices
// are the package-level declarations (methods as Type.Method); an edge joins
// each declaration to every sampled declaration its syntax names (a
// same-package identifier or an imported-package selector) and each method
// to its receiver type.  Only go/parser is used, so resolution is by name.
func goDeclGraph(goroot string, rng *rand.Rand, target int) (*graph.Graph, error) {
	src := filepath.Join(goroot, "src")
	dirOf := map[string]string{} // import path -> directory
	var paths []string
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		switch d.Name() {
		case "testdata", "vendor", "cmd":
			return filepath.SkipDir
		}
		if rel, err := filepath.Rel(src, path); err == nil && rel != "." {
			ip := filepath.ToSlash(rel)
			dirOf[ip] = path
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("go-decls: walk %s: %w", src, err)
	}
	sort.Strings(paths)
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })

	fset := token.NewFileSet()
	var pkgs []*goPkg
	visited := map[string]bool{}
	var queue []string
	total := 0
	for next := 0; total < target; {
		if len(queue) == 0 {
			if next == len(paths) {
				break
			}
			queue = append(queue, paths[next])
			next++
		}
		ip := queue[0]
		queue = queue[1:]
		if visited[ip] {
			continue
		}
		visited[ip] = true
		p, err := parseGoPkg(fset, ip, dirOf[ip])
		if err != nil {
			return nil, err
		}
		// Mid-sized library packages only: one giant (syscall, unicode
		// tables) would otherwise make the graph's size and shape swing
		// from seed to seed.
		if p == nil || len(p.decls) < minPkgDecls || len(p.decls) > maxPkgDecls {
			continue
		}
		pkgs = append(pkgs, p)
		total += len(p.decls)
		for _, im := range p.importPaths() {
			if _, ok := dirOf[im]; ok && !visited[im] {
				queue = append(queue, im)
			}
		}
	}

	// Vertex ids in sorted (package, name) order, so the graph depends only
	// on the sample, not on map iteration.
	type key struct{ pkg, name string }
	var keys []key
	for _, p := range pkgs {
		for name := range p.decls {
			keys = append(keys, key{p.path, name})
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].name < keys[j].name
	})
	id := make(map[key]int, len(keys))
	for i, k := range keys {
		id[k] = i
	}
	g := graph.New(len(keys))
	for _, p := range pkgs {
		imports := map[string]string{} // local name -> import path, over all files
		for _, f := range p.files {
			for _, im := range f.Imports {
				path, _ := strconv.Unquote(im.Path.Value)
				local := path[strings.LastIndex(path, "/")+1:]
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = path
			}
		}
		names := make([]string, 0, len(p.decls))
		for name := range p.decls {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			u := id[key{p.path, name}]
			link := func(k key) {
				if v, ok := id[k]; ok && v != u {
					_ = g.AddEdgeLazy(u, v) // ids are in range and distinct
				}
			}
			if i := strings.IndexByte(name, '.'); i > 0 {
				link(key{p.path, name[:i]}) // method -> receiver type
			}
			ast.Inspect(p.decls[name], func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if path, ok := imports[x.Name]; ok {
							link(key{path, n.Sel.Name})
							return false
						}
					}
				case *ast.Ident:
					link(key{p.path, n.Name})
				}
				return true
			})
		}
	}
	g.Finalize()
	return g, nil
}

// goPkg is one parsed package of the go-decls sample.
type goPkg struct {
	path  string
	decls map[string]ast.Node // declaration name -> its syntax
	files []*ast.File
}

// importPaths lists the package's imports, sorted and deduplicated.
func (p *goPkg) importPaths() []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range p.files {
		for _, im := range f.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			if !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// parseGoPkg parses the non-test files of one directory; it returns nil for
// a directory without a library package.
func parseGoPkg(fset *token.FileSet, path, dir string) (*goPkg, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("go-decls: %w", err)
	}
	p := &goPkg{path: path, decls: map[string]ast.Node{}}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" || f.Name.Name == "documentation" {
			continue // other toolchains' files, deliberately broken ones, commands
		}
		p.files = append(p.files, f)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				p.decls[funcDeclName(d)] = d
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						p.decls[s.Name.Name] = s
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name != "_" {
								p.decls[id.Name] = s
							}
						}
					}
				}
			}
		}
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	return p, nil
}

// Package-size window of the go-decls sample, in declarations.
const minPkgDecls, maxPkgDecls = 10, 250

func funcDeclName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.IndexListExpr:
			t = x.X
			continue
		case *ast.Ident:
			return x.Name + "." + d.Name.Name
		}
		return d.Name.Name
	}
}
