package checkers

import (
	"go/ast"
	"strings"

	"unico/lint/analysis"
	"unico/lint/cfg"
	"unico/lint/flow"
)

// NewDurErr returns the durable-error analyzer. In internal/durable — the
// one package atomicwrite lets make data durable, under checkpoint,
// flightrec, evalcache and disttrace — the error results of the calls that
// do it must not be discarded. A file is an *os.File or a durable.File; the
// durable.FS methods count as the os calls they stand for:
//
//   - Sync on a file, SyncDir on the FS: a discarded fsync error IS a lost
//     write — the fsync return is the only durability signal the OS gives.
//     Flagged in every form, including `_ =`.
//   - os.Rename / FS.Rename: the publish step of the tmp+fsync+rename
//     protocol. Flagged in every form.
//   - Close on a file opened for writing: the OS may surface a
//     deferred write error only at close. Flagged when control flow proves
//     the file may be write-open and unsynced at the close; a close that
//     follows a *checked* Sync, or a close of a file opened read-only, is
//     fine. An explicit `_ = f.Close()` is treated as an acknowledged
//     discard (the cleanup-on-error idiom) and not reported.
//
// The write-open fact is tracked by forward dataflow on the function's CFG:
// os.Create / CreateTemp / OpenFile-with-write-flags (os or FS) gen it, a
// checked Sync or checked Close kills it, and a discarded close is reported
// only if the fact may reach it. Deferred closes are judged against the
// facts at function exit, where the deferred call actually runs.
func NewDurErr() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "durerr",
		Doc: "in internal/durable (the package every persisted artifact is written through) the errors of " +
			"Sync, SyncDir, Rename, and Close-on-a-written-file must be checked, not discarded",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !hasPathSegment(pass.Path, durableSegment) {
			return nil
		}
		for _, file := range pass.Files {
			names := importNames(file)
			forEachFuncBody(file, func(name string, body *ast.BlockStmt) {
				checkDurErr(pass, names, name, body)
			})
		}
		return nil
	}
	return a
}

// forEachFuncBody visits every function body in the file: declarations and
// each function literal, innermost last. Each body is analyzed as its own
// control-flow universe.
func forEachFuncBody(file *ast.File, visit func(name string, body *ast.BlockStmt)) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		visit(fn.Name.Name, fn.Body)
		name := fn.Name.Name
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit(name+".func", lit.Body)
			}
			return true
		})
	}
}

func checkDurErr(pass *analysis.Pass, names map[string]string, fname string, body *ast.BlockStmt) {
	g := cfg.New(body)

	// Bits: one per distinct write-opened file root in this function.
	rootBit := map[string]int{}
	bitFor := func(root string) int {
		if b, ok := rootBit[root]; ok {
			return b
		}
		b := len(rootBit)
		rootBit[root] = b
		return b
	}

	// Pre-scan so the bit universe is stable before solving: find every
	// assignment whose RHS write-opens a file.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(body) {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, root := range writeOpenTargets(pass, names, as) {
				bitFor(root)
			}
		}
		return true
	})
	if len(rootBit) == 0 && !anyDurCall(pass, names, body) {
		return
	}

	// Any Sync or Close of the root kills the unsynced-write fact, in any
	// form: checked forms discharge the obligation, and the discarded forms
	// are reported at their own site — letting the fact survive past them
	// would only re-report the same path at every later close.
	kill := func(facts flow.Set, e ast.Expr) {
		if root, ok := syncOrCloseOf(pass, e); ok {
			if b, tracked := rootBit[root]; tracked {
				facts.Remove(b)
			}
		}
	}
	transfer := func(n ast.Node, facts flow.Set) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, root := range writeOpenTargets(pass, names, n) {
				facts.Add(bitFor(root))
			}
			for _, rhs := range n.Rhs {
				kill(facts, rhs)
			}
		case *ast.ExprStmt:
			kill(facts, n.X)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				kill(facts, r)
			}
		}
	}

	numBits := len(rootBit)
	if numBits == 0 {
		numBits = 1 // flow.Set wants a non-empty universe
	}
	sol := flow.Forward(g, numBits, flow.May, flow.NewSet(numBits), transfer)

	report := func(n ast.Node, format string, args ...any) {
		pass.Reportf(n.Pos(), format, args...)
	}

	sol.Walk(g, func(n ast.Node, before flow.Set) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return
			}
			if isRename(pass, names, call) {
				report(n, "os.Rename error discarded in %s: the rename is the publish step of the snapshot protocol and its failure must surface", fname)
				return
			}
			if what, ok := fsyncCall(pass, call); ok {
				report(n, "%s() error discarded in %s: the fsync return is the only durability signal; check it", what, fname)
				return
			}
			if root, ok := closeOf(pass, call); ok {
				if b, tracked := rootBit[root]; tracked && before.Has(b) {
					report(n, "%s.Close() error discarded in %s while the file may hold unsynced writes: the OS may report a failed write only at close", root, fname)
				}
			}
		case *ast.AssignStmt:
			// `_ = f.Sync()` / `_, _ = ..., os.Rename(...)`: Sync and
			// Rename stay flagged even when explicitly blanked.
			if !allBlank(n.Lhs) {
				return
			}
			for _, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if isRename(pass, names, call) {
					report(n, "os.Rename error explicitly discarded in %s: the publish step must not be best-effort", fname)
					continue
				}
				if what, ok := fsyncCall(pass, call); ok {
					report(n, "%s() error explicitly discarded in %s: the fsync return is the only durability signal; check it", what, fname)
				}
			}
		}
	})

	// Deferred closes run at function exit: judge them against the facts
	// there. Must-join, not may: the idiomatic `defer f.Close()` paired
	// with a checked `return f.Sync()` leaves the fact set on the early
	// error returns only, and a discarded close after a failed write is an
	// acknowledged cleanup. What the defer check catches is the function
	// that NEVER syncs: then the fact holds on every path to exit. (A
	// deferred Sync or Rename discards by construction, on any path.)
	if !g.ExitReachable() {
		return
	}
	exit := flow.Forward(g, numBits, flow.Must, flow.NewSet(numBits), transfer).AtExit(g)
	for _, d := range g.Defers {
		call := d.Call
		if isRename(pass, names, call) {
			report(d, "deferred os.Rename discards its error in %s; rename inline and check it", fname)
			continue
		}
		if what, ok := fsyncCall(pass, call); ok {
			report(d, "deferred %s() discards its error in %s; sync inline and check it", what, fname)
			continue
		}
		if root, ok := closeOf(pass, call); ok {
			if b, tracked := rootBit[root]; tracked && exit.Has(b) {
				report(d, "deferred %s.Close() in %s discards the close error of a file that may hold unsynced writes; close inline after a checked Sync", root, fname)
			}
		}
	}
}

// writeOpenTargets returns the roots assigned from a write-opening call in
// this assignment: os.Create, CreateTemp, or OpenFile with write flags — the
// last two as package os functions or as durable.FS methods.
func writeOpenTargets(pass *analysis.Pass, names map[string]string, as *ast.AssignStmt) []string {
	if len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	name := sel.Sel.Name
	if path, _, ok := pkgSelector(pass, names, sel); ok {
		if path != "os" {
			return nil
		}
	} else if name == "Create" || !isDurableFS(pass.TypeOf(sel.X)) {
		return nil
	}
	switch name {
	case "Create", "CreateTemp":
	case "OpenFile":
		if len(call.Args) < 2 || !flagsWrite(call.Args[1]) {
			return nil
		}
	default:
		return nil
	}
	if len(as.Lhs) == 0 {
		return nil
	}
	root := renderExpr(as.Lhs[0])
	if root == "" || root == "_" {
		return nil
	}
	return []string{root}
}

// flagsWrite reports whether an os.OpenFile flags expression mentions a
// writing mode. Syntactic: the flags are almost always a literal |-chain of
// os.O_* constants; an opaque variable is treated as writing (conservative
// for a durability linter).
func flagsWrite(e ast.Expr) bool {
	text := flagText(e)
	if text == "" {
		return true // opaque: assume writable
	}
	for _, w := range []string{"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC"} {
		if strings.Contains(text, w) {
			return true
		}
	}
	return false
}

func flagText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return renderExpr(e)
	case *ast.Ident:
		return e.Name
	case *ast.BinaryExpr:
		return flagText(e.X) + "|" + flagText(e.Y)
	case *ast.ParenExpr:
		return flagText(e.X)
	}
	return ""
}

// syncOrCloseOf unpacks an expression of the form root.Sync() or
// root.Close() on a file, returning the root.
func syncOrCloseOf(pass *analysis.Pass, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	recv, name, isMeth := methodCall(pass, call)
	if !isMeth || len(call.Args) != 0 || (name != "Sync" && name != "Close") || !isFile(pass.TypeOf(recv)) {
		return "", false
	}
	root := renderExpr(recv)
	return root, root != ""
}

// closeOf unpacks root.Close() on a file, returning the root.
func closeOf(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Close" {
		return "", false
	}
	return syncOrCloseOf(pass, call)
}

// fsyncCall reports whether call is an fsync — Sync() on a file or
// SyncDir(dir) on the durable FS — rendered as "f.Sync" / "fsys.SyncDir".
func fsyncCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	recv, name, isMeth := methodCall(pass, call)
	if !isMeth {
		return "", false
	}
	t := pass.TypeOf(recv)
	if (name == "Sync" && len(call.Args) == 0 && isFile(t)) || (name == "SyncDir" && isDurableFS(t)) {
		return renderExpr(recv) + "." + name, true
	}
	return "", false
}

// isRename reports whether call is os.Rename or Rename on the durable FS.
func isRename(pass *analysis.Pass, names map[string]string, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Rename" {
		return false
	}
	if path, _, ok := pkgSelector(pass, names, sel); ok {
		return path == "os"
	}
	return isDurableFS(pass.TypeOf(sel.X))
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(lhs) > 0
}

// anyDurCall cheaply reports whether the body mentions Sync, SyncDir, Close
// or Rename at all, so functions without them skip graph construction.
func anyDurCall(pass *analysis.Pass, names map[string]string, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isRename(pass, names, call) {
			found = true
			return false
		}
		if _, name, isMeth := methodCall(pass, call); isMeth && (name == "Sync" || name == "SyncDir" || name == "Close") {
			found = true
			return false
		}
		return true
	})
	return found
}
