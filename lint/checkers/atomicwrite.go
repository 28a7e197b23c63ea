package checkers

import (
	"go/ast"

	"unico/lint/analysis"
)

// persistSegments are the packages that own durable artifacts (write-ahead
// journals, snapshots, flight records, span logs, cache warm-start files).
// PR 3 made their crash safety contractual; they get it from
// internal/durable and may not write files any other way.
var persistSegments = []string{"checkpoint", "flightrec", "evalcache", "disttrace", durableSegment}

// NewAtomicWrite returns the durable-write analyzer. Three rules:
//
//  1. Outside internal/durable: os.Rename, os.CreateTemp and Sync() on a
//     file are flagged outright. Durability is hand-rolled in exactly one
//     package, where it is fault-injected once for everybody; everything
//     else goes through durable.Log or durable.WriteFile.
//  2. Inside internal/durable: a rename (os.Rename, or Rename on the
//     durable.FS seam) in a function that performs no Sync() call before it
//     is flagged. Renaming an unsynced temp file can publish a zero-length
//     or torn file after a crash, which is exactly what the atomic-snapshot
//     protocol exists to prevent. A method itself named Rename is the seam's
//     implementation, not a publish step, and is exempt.
//  3. In the persistence packages and internal/durable: os.WriteFile is
//     flagged — it truncates in place and fsyncs nothing, so a crash
//     mid-write corrupts the artifact.
func NewAtomicWrite() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "atomicwrite",
		Doc: "os.Rename, os.CreateTemp and file Sync() belong to internal/durable alone, where a rename must be " +
			"preceded by a Sync() in the same function; the persistence packages (checkpoint, flightrec, " +
			"evalcache, disttrace, durable) may not use os.WriteFile at all",
	}
	a.Run = func(pass *analysis.Pass) error {
		inDurable := hasPathSegment(pass.Path, durableSegment)
		persist := anySegment(pass.Path, persistSegments)
		for _, file := range pass.Files {
			names := importNames(file)
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkFuncAtomicWrite(pass, names, fn, inDurable, persist)
			}
		}
		return nil
	}
	return a
}

func checkFuncAtomicWrite(pass *analysis.Pass, names map[string]string, fn *ast.FuncDecl, inDurable, persist bool) {
	// First sweep: where do Sync() calls happen in this function?
	var syncs []ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" && len(call.Args) == 0 {
				syncs = append(syncs, call)
			}
		}
		return true
	})
	syncBefore := func(n ast.Node) bool {
		for _, s := range syncs {
			if s.Pos() < n.Pos() {
				return true
			}
		}
		return false
	}
	outside := func(call *ast.CallExpr, what string) {
		pass.Reportf(call.Pos(),
			"%s outside internal/durable in %s: durability is hand-rolled in one package only; use durable.Log or durable.WriteFile", what, fn.Name.Name)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if isRename(pass, names, call) {
			switch {
			case !inDurable:
				outside(call, "os.Rename")
			case fn.Name.Name != "Rename" && !syncBefore(call):
				pass.Reportf(call.Pos(),
					"os.Rename without a prior Sync() in %s: an unsynced source file can surface torn or empty after a crash", fn.Name.Name)
			}
			return true
		}
		if what, ok := fsyncCall(pass, call); ok && !inDurable {
			outside(call, what+"()")
			return true
		}
		if path, name, ok := pkgSelector(pass, names, sel); ok && path == "os" {
			switch {
			case name == "CreateTemp" && !inDurable:
				outside(call, "os.CreateTemp")
			case name == "WriteFile" && persist:
				pass.Reportf(call.Pos(),
					"os.WriteFile in persistence package %s truncates in place without fsync; use durable.WriteFile", pass.Path)
			}
		}
		return true
	})
}
