//go:build !race

// The guard type-checks every package of both modules from source, and the
// standard library with them; under -race that takes several times longer
// and proves nothing more, so the race step skips it.

package bedom

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// apiAllowlist names the exported internal identifiers that no production
// file refers to but that stay anyway, each with its reason.
const apiAllowlist = "testdata/exported_api_allowlist.txt"

// allowReasons are the categories an allowlist entry may give: an oracle or
// fixture that tests in another package call, the fault-injection harness,
// or an identifier that a named ROADMAP item reserves.
var allowReasons = []string{"oracle", "fault", "roadmap"}

// TestExportedAPIGuard fails when an exported identifier under internal/ has
// no reference outside _test.go files, in this module or in loadbench/, and
// is not on the allowlist; it also fails when an allowlist entry has gone
// stale. To keep such an identifier, add a line to the allowlist:
//
//	bedom/internal/<pkg>.<Name>[.<Member>] <category>: <one-line reason>
func TestExportedAPIGuard(t *testing.T) {
	reported, err := unreferencedExports([]apiModule{
		{Path: "bedom", Dir: "."},
		{Path: "bedom/loadbench", Dir: "loadbench"},
	}, "bedom/internal/")
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(apiAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllowlist(string(text))
	if err != nil {
		t.Fatalf("%s: %v", apiAllowlist, err)
	}
	for _, p := range checkAllowlist(reported, allow) {
		t.Error(p)
	}
}

// TestExportedAPIGuardFixture runs the guard's analysis over a planted
// module and checks each verdict it must get right.
func TestExportedAPIGuardFixture(t *testing.T) {
	reported, err := unreferencedExports([]apiModule{
		{Path: "fixture", Dir: "testdata/apiguard"},
	}, "fixture/internal/")
	if err != nil {
		t.Fatal(err)
	}
	// a.Unused has no reference except from a test; a.Shared shares its name
	// with b.Shared, which b uses; a.Orphan and a.Recurse are referenced only
	// from their own declarations; the field a.Impl.Spare is never touched;
	// a.Impl.Describe is reached only through b's Describer interface; a.Used
	// is called from cmd.
	want := []string{
		"fixture/internal/a.Impl.Spare", "fixture/internal/a.Orphan", "fixture/internal/a.Orphan.Unreached",
		"fixture/internal/a.Recurse", "fixture/internal/a.Shared", "fixture/internal/a.Unused",
	}
	if !slices.Equal(reported, want) {
		t.Fatalf("reported %v, want %v", reported, want)
	}

	allow, err := parseAllowlist(`# planted entries
fixture/internal/a.Unused  oracle: kept for a test in another package
fixture/internal/a.Used    roadmap: reserved, but production now calls it
fixture/internal/a.Gone    fault: deleted since it was listed
`)
	if err != nil {
		t.Fatal(err)
	}
	// Every reported identifier but a.Unused is missing from the list, and
	// the entries for a.Used and a.Gone are stale.
	problems := checkAllowlist(reported, allow)
	var got []string
	for _, p := range problems {
		got = append(got, p[:strings.IndexByte(p, ':')])
	}
	slices.Sort(got)
	wantIDs := []string{
		"fixture/internal/a.Gone", "fixture/internal/a.Impl.Spare", "fixture/internal/a.Orphan", "fixture/internal/a.Orphan.Unreached",
		"fixture/internal/a.Recurse", "fixture/internal/a.Shared", "fixture/internal/a.Used",
	}
	if !slices.Equal(got, wantIDs) {
		t.Fatalf("problems for %v, want %v:\n%s", got, wantIDs, strings.Join(problems, "\n"))
	}

	for _, bad := range []string{
		"fixture/internal/a.X",                                           // no reason
		"fixture/internal/a.X convenience: handy",                        // category not allowed
		"fixture/internal/a.X oracle:",                                   // empty reason
		"fixture/internal/a.X oracle: a\nfixture/internal/a.X oracle: b", // duplicate
	} {
		if _, err := parseAllowlist(bad); err == nil {
			t.Errorf("parseAllowlist(%q) accepted a malformed list", bad)
		}
	}
}

// checkAllowlist compares the reported identifiers with the allowlist and
// returns one "<identifier>: <problem>" line per disagreement, sorted.
func checkAllowlist(reported []string, allow map[string]string) []string {
	var problems []string
	for _, id := range reported {
		if _, ok := allow[id]; !ok {
			problems = append(problems, id+": exported but referenced only by tests; "+
				"delete it, move it into a _test.go file, or allowlist it with a reason in "+apiAllowlist)
		}
	}
	for id := range allow {
		if !slices.Contains(reported, id) {
			problems = append(problems, id+": stale allowlist entry; it is referenced "+
				"outside tests now, or no longer exists: remove it from "+apiAllowlist)
		}
	}
	slices.Sort(problems)
	return problems
}

// parseAllowlist reads "<identifier> <category>: <reason>" lines; blank
// lines and lines starting with # are skipped.
func parseAllowlist(text string) (map[string]string, error) {
	allow := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || s[0] == '#' {
			continue
		}
		id, reason, _ := strings.Cut(s, " ")
		reason = strings.TrimSpace(reason)
		cat, why, ok := strings.Cut(reason, ":")
		if !ok || !slices.Contains(allowReasons, cat) || strings.TrimSpace(why) == "" {
			return nil, fmt.Errorf("line %d: want %q with a category in %v", line,
				"<identifier> <category>: <reason>", allowReasons)
		}
		if _, dup := allow[id]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", line, id)
		}
		allow[id] = reason
	}
	return allow, sc.Err()
}

// apiModule is one module whose non-test files count as references.
type apiModule struct {
	Path string // module path from go.mod
	Dir  string // directory holding go.mod
}

// apiScan type-checks the modules' packages from source. It is its own
// importer for module packages, so every reference resolves to the very
// object that declares it; the standard library comes from the source
// importer, so nothing needs compiled export data or a download.
type apiScan struct {
	fset *token.FileSet
	std  types.ImporterFrom
	mods []apiModule
	pkgs map[string]*apiPackage
}

type apiPackage struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// unreferencedExports returns, sorted, the exported identifiers declared in
// packages whose import path starts with prefix that no non-test file of the
// modules refers to. An identifier is a package-level name, a method
// ("pkg.Type.Method") or a struct field ("pkg.Type.Field"). A reference from
// inside the identifier's own declaration, or a type's mention in its own
// methods' receivers, does not count. A method counts as referenced when its
// type satisfies an interface that has that method.
func unreferencedExports(mods []apiModule, prefix string) ([]string, error) {
	s := &apiScan{
		fset: token.NewFileSet(),
		mods: mods,
		pkgs: make(map[string]*apiPackage),
	}
	s.std = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)
	var paths []string
	for _, m := range mods {
		err := filepath.WalkDir(m.Dir, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != m.Dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && dir != m.Dir {
				return filepath.SkipDir // a nested module is listed on its own
			}
			rel, err := filepath.Rel(m.Dir, dir)
			if err != nil {
				return err
			}
			path := m.Path
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			paths = append(paths, path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		if _, err := s.load(path); err != nil {
			return nil, err
		}
	}

	type candidate struct {
		key      string
		from, to token.Pos // the declaration's own extent
		used     bool
	}
	cands := make(map[types.Object]*candidate)
	add := func(obj types.Object, key string, from, to token.Pos) {
		if obj != nil {
			cands[obj] = &candidate{key: key, from: from, to: to}
		}
	}
	var methods []*types.Func
	// The type names in method receivers, which do not count as references.
	recvIdents := make(map[*ast.Ident]bool)
	for path, p := range s.pkgs {
		if !strings.HasPrefix(path, prefix) || p.types == nil {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recvIdents[id] = true
							}
							return true
						})
					}
					if !d.Name.IsExported() {
						continue
					}
					fn, _ := p.info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					key := path + "." + d.Name.Name
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						key = path + "." + recvName(recv.Type()) + "." + d.Name.Name
						methods = append(methods, fn)
					}
					add(fn, key, d.Pos(), d.End())
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								if n.IsExported() {
									add(p.info.Defs[n], path+"."+n.Name, sp.Pos(), sp.End())
								}
							}
						case *ast.TypeSpec:
							if sp.Name.IsExported() {
								add(p.info.Defs[sp.Name], path+"."+sp.Name.Name, sp.Pos(), sp.End())
							}
							st, ok := sp.Type.(*ast.StructType)
							if !ok {
								continue
							}
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									if n.IsExported() {
										add(p.info.Defs[n], path+"."+sp.Name.Name+"."+n.Name, fld.Pos(), fld.End())
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, p := range s.pkgs {
		if p.types == nil {
			continue
		}
		for id, obj := range p.info.Uses {
			c := cands[origin(obj)]
			if c == nil || recvIdents[id] || (c.from <= id.Pos() && id.Pos() < c.to) {
				continue
			}
			c.used = true
		}
	}

	ifaces := s.interfaces()
	for _, fn := range methods {
		c := cands[fn]
		if c.used {
			continue
		}
		named := recvNamed(fn.Type().(*types.Signature).Recv().Type())
		if named == nil || named.TypeParams().Len() > 0 {
			continue
		}
		ptr := types.NewPointer(named)
		for _, it := range ifaces {
			if hasMethod(it, fn.Name()) && (types.Implements(named, it) || types.Implements(ptr, it)) {
				c.used = true
				break
			}
		}
	}

	var out []string
	for _, c := range cands {
		if !c.used {
			out = append(out, c.key)
		}
	}
	slices.Sort(out)
	return out, nil
}

// ImportFrom loads module packages itself and leaves the rest to the
// standard library's source importer.
func (s *apiScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := s.module(path); ok {
		p, err := s.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return s.std.ImportFrom(path, dir, mode)
}

func (s *apiScan) Import(path string) (*types.Package, error) { return s.ImportFrom(path, "", 0) }

// module returns the module that owns path, preferring the longest match.
func (s *apiScan) module(path string) (apiModule, bool) {
	var best apiModule
	found := false
	for _, m := range s.mods {
		if (path == m.Path || strings.HasPrefix(path, m.Path+"/")) && len(m.Path) >= len(best.Path) {
			best, found = m, true
		}
	}
	return best, found
}

// load parses and type-checks the non-test files of one module package that
// match this platform's build constraints. A directory without such files
// yields a package with no types.
func (s *apiScan) load(path string) (*apiPackage, error) {
	if p, ok := s.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	s.pkgs[path] = nil
	m, _ := s.module(path)
	dir := filepath.Join(m.Dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, m.Path), "/")))
	bp, err := build.Default.ImportDir(dir, 0)
	p := &apiPackage{}
	if _, none := err.(*build.NoGoError); none {
		s.pkgs[path] = p
		return p, nil
	} else if err != nil {
		return nil, err
	}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: s}
	p.types, err = conf.Check(path, s.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	return p, nil
}

// interfaces returns every interface a method could be reached through: the
// named interfaces of each package the modules import, directly or not, and
// every interface type that appears in module code.
func (s *apiScan) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, p := range s.pkgs {
		if p.types == nil {
			continue
		}
		visit(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				out = append(out, it)
			}
		}
	}
	return out
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// origin maps an object of an instantiated generic to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

func recvName(t types.Type) string {
	if n := recvNamed(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}
