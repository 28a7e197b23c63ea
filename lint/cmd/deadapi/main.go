// Command deadapi is the dead-API census. It loads a Go module from source
// (stdlib only — see unico/lint/load) and prints every exported function or
// method that no non-test code in the module refers to. It exits 1 when it
// finds one, so the census runs as a CI gate; there is no allowlist.
//
// Usage:
//
//	deadapi [-C dir]
//
// A reference is any use of the function or method, a call or a value, from
// a non-test file of any package in the module (main packages included),
// outside the function's own body. Matching is by type, not by name, so two
// methods that share a name are told apart. These are never reported:
//
//   - methods that implement an interface the module or its dependencies
//     declare (or instantiate);
//   - the module's root package, which is its public facade;
//   - packages that no non-test package imports (test helpers, commands);
//   - contract predicates: a function returning one bool that the tests of
//     more than one package call.
//
// Functions of other packages whose only references are in the two
// benchmark harnesses, bench/ and internal/benchmarks, are listed separately
// as harness-only, for information; they do not fail the census.
//
// Exit status is 0 when clean, 1 when dead API was found, 2 on operational
// errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"unico/lint/load"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deadapi", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory of the module to census")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(stderr, "deadapi: takes no arguments; the census covers the whole module under -C")
		return 2
	}
	c, err := takeCensus(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "deadapi: %v\n", err)
		return 2
	}
	base, err := filepath.Abs(*dir)
	if err != nil {
		base = *dir
	}
	rel := func(pos token.Position) string {
		if r, err := filepath.Rel(base, pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
			return fmt.Sprintf("%s:%d", filepath.ToSlash(r), pos.Line)
		}
		return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	}
	for _, s := range c.dead {
		fmt.Fprintf(stdout, "%s: %s: no caller outside tests\n", rel(s.pos), s.name)
	}
	if len(c.harnessOnly) > 0 {
		fmt.Fprintln(stdout, "harness-only (called only from bench/ or internal/benchmarks; for information):")
		for _, s := range c.harnessOnly {
			fmt.Fprintf(stdout, "  %s: %s\n", rel(s.pos), s.name)
		}
	}
	fmt.Fprintf(stderr, "deadapi: %d exported functions and methods, %d without a non-test caller, %d harness-only\n",
		c.exported, len(c.dead), len(c.harnessOnly))
	if len(c.dead) > 0 {
		return 1
	}
	return 0
}

// symbol is one exported function or method the census reports.
type symbol struct {
	name string // package name, receiver type (for methods) and name, dot-joined
	pos  token.Position
}

type census struct {
	exported    int // exported functions and methods examined
	dead        []symbol
	harnessOnly []symbol
}

// takeCensus loads the module under dir, its tests and their imports, and
// sorts every exported function and method of the module into alive, dead
// or harness-only.
func takeCensus(dir string) (*census, error) {
	mod, err := modulePath(dir)
	if err != nil {
		return nil, err
	}
	inModule := func(path string) bool { return path == mod || strings.HasPrefix(path, mod+"/") }
	inHarness := func(path string) bool {
		for _, h := range []string{mod + "/bench", mod + "/internal/benchmarks"} {
			if path == h || strings.HasPrefix(path, h+"/") {
				return true
			}
		}
		return false
	}

	loader := load.New(dir)
	roots, err := loader.Roots()
	if err != nil {
		return nil, err
	}
	var pkgs []*load.Package
	for _, p := range roots {
		if len(p.TypeErrors) > 0 {
			return nil, fmt.Errorf("type error in %s: %v (the census needs a compiling module)", p.ImportPath, p.TypeErrors[0])
		}
		if inModule(p.ImportPath) {
			pkgs = append(pkgs, p)
		}
	}

	// Non-test references, by referring package, and who imports whom.
	declared := map[string]*ast.FuncDecl{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						declared[key(fn)] = fd
					}
				}
			}
		}
	}
	refs := map[string]map[string]bool{}
	importedBy := map[string]bool{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || !inModule(fn.Pkg().Path()) {
				continue
			}
			k := key(fn)
			if fd := declared[k]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
				continue // recursion is not a caller
			}
			addRef(refs, k, p.ImportPath)
		}
		for _, imp := range p.Types.Imports() {
			if imp.Path() != p.ImportPath {
				importedBy[imp.Path()] = true
			}
		}
	}

	testRefs, err := testReferences(loader, pkgs, inModule)
	if err != nil {
		return nil, err
	}
	argLists := typeArgLists(pkgs)
	ifaces := interfacesByMethod(loader, pkgs, argLists)

	c := &census{}
	for _, p := range pkgs {
		if p.ImportPath == mod || !importedBy[p.ImportPath] {
			continue // the facade, or a package only tests and commands see
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if implementsInterface(fn, ifaces, argLists) {
					continue
				}
				c.exported++
				k := key(fn)
				s := symbol{name: p.Types.Name() + strings.TrimPrefix(k, p.ImportPath), pos: loader.Fset.Position(fd.Name.Pos())}
				switch {
				case anyRef(refs[k], func(path string) bool { return !inHarness(path) }):
				case len(refs[k]) > 0 && inHarness(p.ImportPath): // the harness's own API
				case len(refs[k]) > 0:
					c.harnessOnly = append(c.harnessOnly, s)
				case isPredicate(fn) && len(testRefs[k]) > 1:
				default:
					c.dead = append(c.dead, s)
				}
			}
		}
	}
	for _, list := range [][]symbol{c.dead, c.harnessOnly} {
		sort.Slice(list, func(i, j int) bool {
			a, b := list[i].pos, list[j].pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			return a.Line < b.Line
		})
	}
	return c, nil
}

// modulePath reads the module path from dir's go.mod.
func modulePath(dir string) (string, error) {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", filepath.Join(dir, "go.mod"))
}

// key names a function or method module-wide: import path, receiver type
// name for a method, and name. It is the same for every type-check of the
// declaring package, which the test pass repeats.
func key(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func addRef(refs map[string]map[string]bool, k, from string) {
	if refs[k] == nil {
		refs[k] = map[string]bool{}
	}
	refs[k][from] = true
}

func anyRef(from map[string]bool, pred func(string) bool) bool {
	for path := range from {
		if pred(path) {
			return true
		}
	}
	return false
}

func isPredicate(fn *types.Func) bool {
	res := fn.Type().(*types.Signature).Results()
	return res.Len() == 1 && types.Identical(res.At(0).Type(), types.Typ[types.Bool])
}

// testReferences type-checks each package's _test.go files (in-package
// tests against the package's own files, external tests against that
// result) and returns, per module function, the packages whose tests refer
// to it. Type errors are tolerated: the pass only reads references.
func testReferences(loader *load.Loader, pkgs []*load.Package, inModule func(string) bool) (map[string]map[string]bool, error) {
	type testFiles struct {
		in, ext []*ast.File
	}
	files := map[*load.Package]*testFiles{}
	var extra []string
	for _, p := range pkgs {
		names, err := filepath.Glob(filepath.Join(p.Dir, "*_test.go"))
		if err != nil {
			return nil, err
		}
		tf := &testFiles{}
		for _, name := range names {
			if ok, err := build.Default.MatchFile(p.Dir, filepath.Base(name)); err != nil || !ok {
				continue
			}
			af, err := parser.ParseFile(loader.Fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			if af.Name.Name == p.Types.Name() {
				tf.in = append(tf.in, af)
			} else {
				tf.ext = append(tf.ext, af)
			}
			for _, imp := range af.Imports {
				extra = append(extra, strings.Trim(imp.Path.Value, `"`))
			}
		}
		files[p] = tf
	}
	if len(extra) > 0 {
		// Lists and loads what only tests import; the module's own
		// packages are already loaded and stay as they are.
		if _, err := loader.Roots(extra...); err != nil {
			return nil, err
		}
	}

	refs := map[string]map[string]bool{}
	// check type-checks files as package path, resolving an import of
	// self's path to self, and records the module functions the test files
	// among them refer to.
	check := func(path string, files []*ast.File, self *types.Package, from string) *types.Package {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{
			Importer: importerFunc(func(ip string) (*types.Package, error) {
				if self != nil && ip == self.Path() {
					return self, nil
				}
				dep, err := loader.LoadOverlay(ip)
				if err != nil {
					return nil, err
				}
				return dep.Types, nil
			}),
			Error: func(error) {},
		}
		tp, _ := conf.Check(path, loader.Fset, files, info)
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if ok && fn.Pkg() != nil && inModule(fn.Pkg().Path()) &&
				strings.HasSuffix(loader.Fset.Position(id.Pos()).Filename, "_test.go") {
				addRef(refs, key(fn), from)
			}
		}
		return tp
	}
	for _, p := range pkgs {
		tf, self := files[p], p.Types
		if len(tf.in) > 0 {
			self = check(p.ImportPath, append(append([]*ast.File(nil), p.Files...), tf.in...), nil, p.ImportPath)
		}
		if len(tf.ext) > 0 {
			check(p.ImportPath+"_test", tf.ext, self, p.ImportPath)
		}
	}
	return refs, nil
}

// interfacesByMethod indexes, by method name, every interface reachable
// from the module: the universe's error, every interface type written in the
// module or its dependencies (named or literal, such as errors.Unwrap's
// interface{ Unwrap() error }), and each generic interface instantiated with
// every type-argument list the module uses.
func interfacesByMethod(loader *load.Loader, pkgs []*load.Package, argLists [][]types.Type) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	var add func(t types.Type)
	add = func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 && named.TypeArgs().Len() == 0 {
			for _, inst := range instantiations(named, argLists) {
				add(inst)
			}
			return
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	// Dependencies carry no types.Info; their interface literals are
	// type-checked one by one in the scope they appear in.
	seenPkg := map[string]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seenPkg[tp.Path()] {
			return
		}
		seenPkg[tp.Path()] = true
		for _, imp := range tp.Imports() {
			walk(imp)
		}
		dep, err := loader.LoadOverlay(tp.Path())
		if err != nil || dep.Info != nil {
			return // unloadable, or a module package already indexed
		}
		for _, f := range dep.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok && it.Methods != nil && len(it.Methods.List) > 0 {
					info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
					if types.CheckExpr(loader.Fset, dep.Types, it.Pos(), it, info) == nil {
						add(info.Types[it].Type)
					}
				}
				return true
			})
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
	}
	return byName
}

// typeArgLists returns the distinct type-argument lists of the generic
// instances the module's code has values or types of.
func typeArgLists(pkgs []*load.Package) [][]types.Type {
	var out [][]types.Type
	seen := map[string]bool{}
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || named.TypeArgs().Len() == 0 {
				continue
			}
			args := make([]types.Type, named.TypeArgs().Len())
			var k strings.Builder
			for i := range args {
				args[i] = named.TypeArgs().At(i)
				k.WriteString(types.TypeString(args[i], nil) + ";")
			}
			if !seen[k.String()] {
				seen[k.String()] = true
				out = append(out, args)
			}
		}
	}
	return out
}

// instantiations instantiates a generic named type with each argument list
// of its arity: an uninstantiated type cannot be asked whether it
// implements an interface, its instances can.
func instantiations(named *types.Named, argLists [][]types.Type) []types.Type {
	var out []types.Type
	for _, args := range argLists {
		if len(args) != named.TypeParams().Len() {
			continue
		}
		if inst, err := types.Instantiate(nil, named.Origin(), args, false); err == nil {
			out = append(out, inst)
		}
	}
	return out
}

// implementsInterface reports whether fn is a method that satisfies a
// same-named method of an interface its receiver type (or a pointer to it)
// implements.
func implementsInterface(fn *types.Func, byName map[string][]*types.Interface, argLists [][]types.Type) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	candidates := []types.Type{named}
	if named.TypeParams().Len() > 0 {
		candidates = instantiations(named, argLists)
	}
	for _, iface := range byName[fn.Name()] {
		for _, c := range candidates {
			if types.Implements(c, iface) || types.Implements(types.NewPointer(c), iface) {
				return true
			}
		}
	}
	return false
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
