package padc

import (
	"bufio"
	"errors"
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
	"strings"
	"testing"
)

// apiAllow names the exported names under internal/ that only tests use,
// each with the reason it stays exported. Everything else exported there
// must have a caller in non-test code, or go.
var apiAllow = map[string]string{
	"sweepd.StatePending":                     "zero value of State: a new campaign starts in it without naming it",
	"cpu.(*Core).InRunahead":                  "sim's lockstep audit reads runahead state across the package boundary",
	"cpu.(*Core).Window":                      "sim's lockstep audit reads the ROB occupancy across the package boundary",
	"dram.(*Config).Unmap":                    "inverse of Map; topology's bijection tests check steering round-trips through it",
	"dram/refresh.(*Engine).Audit":            "conservation audit that memctrl and sim tests run against the refresh engine",
	"telemetry/lifecycle.(*Tracer).Breakdown": "sim tests check folded demand and dropped spans against the run's counters",
	"telemetry/lifecycle.(*Tracer).Cores":     "sim tests range over every core's breakdown with it",
}

// TestNoUnusedExports fails on an exported name under internal/ that no
// non-test code in this module or in bench/ uses, and on an allow-list
// entry that is stale: gone, or now used outside tests.
func TestNoUnusedExports(t *testing.T) {
	unused, names, err := unusedExports(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sortedKeys(unused) {
		if _, ok := apiAllow[n]; !ok {
			t.Errorf("%s is exported but nothing outside tests uses it: delete it, move it to its package's export_test.go, or allow-list it with a reason", n)
		}
	}
	for _, n := range sortedKeys(apiAllow) {
		switch {
		case apiAllow[n] == "":
			t.Errorf("allow-list entry %s has no reason", n)
		case !names[n]:
			t.Errorf("allow-list entry %s names no exported name under internal/: remove it", n)
		case !unused[n]:
			t.Errorf("allow-list entry %s is now used outside tests: remove it", n)
		}
	}
}

// TestAPIGuardFixture runs the checker on a module with one planted
// unused export, one export main calls, and a String method only fmt
// reaches: exactly the planted one must be flagged.
func TestAPIGuardFixture(t *testing.T) {
	unused, names, err := unusedExports(filepath.Join("testdata", "apiguard"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"lib.Unused", "lib.Used", "lib.T", "lib.T.String"} {
		if !names[n] {
			t.Errorf("checker did not see %s", n)
		}
	}
	if got := sortedKeys(unused); len(got) != 1 || got[0] != "lib.Unused" {
		t.Errorf("flagged %v, want [lib.Unused]", got)
	}
}

// stdInterfaces are the standard interfaces whose methods the program's
// types satisfy without any program code calling them by name.
var stdInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"io", "Writer"},
	{"encoding/json", "Marshaler"},
	{"net/http", "Handler"},
	{"net/http", "Flusher"},
	{"net/http", "ResponseWriter"},
}

// unusedExports type-checks every non-test package of the modules rooted
// at roots and reports the exported names declared under the first
// module's internal/ that no non-test code uses, keyed like
// "pkg.Func" or "pkg.(*T).Method" with pkg relative to internal/. names
// holds every exported name considered. A method counts as used when an
// interface declared in the program, or one of stdInterfaces, has a
// method of that name.
func unusedExports(roots ...string) (unused, names map[string]bool, err error) {
	g := &apiGuard{pkgs: map[string]*guardPkg{}}
	for _, root := range roots {
		m, err := readModule(root)
		if err != nil {
			return nil, nil, err
		}
		g.mods = append(g.mods, m)
	}
	for _, m := range g.mods {
		if err := g.loadTree(m); err != nil {
			return nil, nil, err
		}
	}

	used := map[types.Object]bool{}
	ifaceMethods := map[string]bool{}
	for _, si := range stdInterfaces {
		obj := types.Universe.Lookup(si.name)
		if si.pkg != "" {
			p, err := guardStd.Import(si.pkg)
			if err != nil {
				return nil, nil, err
			}
			obj = p.Scope().Lookup(si.name)
		}
		addMethods(ifaceMethods, obj.Type())
	}
	for _, p := range g.pkgs {
		for _, obj := range p.info.Uses {
			// A method of an instantiated generic type is used through
			// its declaration.
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			used[obj] = true
		}
		for expr, tv := range p.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				addMethods(ifaceMethods, tv.Type)
			}
		}
	}

	internal := g.mods[0].path + "/internal/"
	unused, names = map[string]bool{}, map[string]bool{}
	note := func(key string, isUsed bool) {
		names[key] = true
		if !isUsed {
			unused[key] = true
		}
	}
	for path, p := range g.pkgs {
		if !strings.HasPrefix(path, internal) {
			continue
		}
		rel := strings.TrimPrefix(path, internal)
		scope := p.types.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				note(rel+"."+n, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				recv := n
				if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
					recv = "(*" + n + ")"
				}
				note(rel+"."+recv+"."+m.Name(), used[m] || ifaceMethods[m.Name()])
			}
		}
	}
	return unused, names, nil
}

type guardModule struct{ path, dir string }

type guardPkg struct {
	types *types.Package
	info  *types.Info
}

// guardStd type-checks the standard library from source, so the guard
// needs no build cache or network. It is shared so both guard tests pay
// for each standard package once.
var (
	guardFset = token.NewFileSet()
	guardStd  = importer.ForCompiler(guardFset, "source", nil).(types.ImporterFrom)
)

// apiGuard type-checks the modules' packages from source, importing the
// standard library through guardStd.
type apiGuard struct {
	mods []guardModule
	pkgs map[string]*guardPkg
}

func (g *apiGuard) Import(path string) (*types.Package, error) {
	return g.ImportFrom(path, "", 0)
}

func (g *apiGuard) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	// The longest module path wins, so padc/bench/x resolves into bench/.
	var best guardModule
	for _, m := range g.mods {
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) && len(m.path) > len(best.path) {
			best = m
		}
	}
	if best.path == "" {
		return guardStd.ImportFrom(path, dir, mode)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, best.path), "/")
	p, err := g.load(path, filepath.Join(best.dir, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("import %s: no Go files", path)
	}
	return p.types, nil
}

// load type-checks the non-test files of the package in dir that the
// default build context selects, once. It returns nil for a directory
// with no such files.
func (g *apiGuard) load(path, dir string) (*guardPkg, error) {
	if p, ok := g.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(guardFset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tp, err := (&types.Config{Importer: g}).Check(path, guardFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p := &guardPkg{types: tp, info: info}
	g.pkgs[path] = p
	return p, nil
}

// loadTree loads every package of module m, skipping hidden directories,
// testdata and nested modules.
func (g *apiGuard) loadTree(m guardModule) error {
	return filepath.WalkDir(m.dir, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != m.dir {
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil {
			return err
		}
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = g.load(path, dir)
		return err
	})
}

// readModule returns the module path declared in dir's go.mod.
func readModule(dir string) (guardModule, error) {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return guardModule{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return guardModule{path: strings.Trim(strings.TrimSpace(rest), `"`), dir: dir}, nil
		}
	}
	if err := sc.Err(); err != nil {
		return guardModule{}, err
	}
	return guardModule{}, fmt.Errorf("%s/go.mod declares no module", dir)
}

func addMethods(set map[string]bool, t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			set[it.Method(i).Name()] = true
		}
	}
}
