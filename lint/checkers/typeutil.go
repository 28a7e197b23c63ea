package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"unico/lint/analysis"
)

// renderExpr renders an ident or selector chain ("mu", "s.mu", "r.f") into
// a canonical string analyzers use as a variable identity. Expressions that
// are not simple chains (calls, index expressions) render as "" — analyzers
// must skip those rather than guess at aliasing.
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := renderExpr(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return renderExpr(e.X)
	case *ast.UnaryExpr:
		return renderExpr(e.X) // &s.mu locks s.mu
	case *ast.StarExpr:
		return renderExpr(e.X)
	}
	return ""
}

// namedType unwraps one level of pointer and returns the named type
// beneath, or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool { return isNamed(t, "context", "Context") }

// durableSegment names the one package allowed to hand-roll durability
// (internal/durable and the test double beneath it).
const durableSegment = "durable"

// isDurableNamed reports whether t (possibly behind a pointer) is the type
// called name in a package under the durable segment.
func isDurableNamed(t types.Type, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && hasPathSegment(n.Obj().Pkg().Path(), durableSegment)
}

// isFile reports whether t is a file handle whose Sync is an fsync:
// *os.File, or the File interface durable writes through.
func isFile(t types.Type) bool { return isNamed(t, "os", "File") || isDurableNamed(t, "File") }

// isDurableFS reports whether t is durable's filesystem seam, whose
// OpenFile, CreateTemp, Rename and SyncDir stand for the os calls.
func isDurableFS(t types.Type) bool { return isDurableNamed(t, "FS") }

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// methodCall unpacks a call of the form recv.Name(args...), returning the
// receiver expression and the method name. ok is false for plain function
// calls, package-qualified calls, and conversions.
func methodCall(pass *analysis.Pass, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	if id, isIdent := sel.X.(*ast.Ident); isIdent && pass.TypesInfo != nil {
		if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
			return nil, "", false // pkg.Func(...), not a method
		}
	}
	return sel.X, sel.Sel.Name, true
}

// calleePkgPath resolves the package that declares the function or method
// being called, or "" when type information cannot say. Only declared
// functions count: calling a func-typed variable or parameter says nothing
// about which package's code runs (the variable's own package certainly
// isn't it).
func calleePkgPath(pass *analysis.Pass, call *ast.CallExpr) string {
	if pass.TypesInfo == nil {
		return ""
	}
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isHTTPClientCall reports whether call performs a blocking HTTP round
// trip: a Do/Get/Post/PostForm/Head method on *net/http.Client, or the
// package-level http.Get/Post/PostForm/Head helpers.
func isHTTPClientCall(pass *analysis.Pass, names map[string]string, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Do", "Get", "Post", "PostForm", "Head":
	default:
		return false
	}
	if path, _, isPkg := pkgSelector(pass, names, sel); isPkg {
		return path == "net/http"
	}
	return isNamed(pass.TypeOf(sel.X), "net/http", "Client")
}

// isChanType reports whether t is a channel type.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// selectHasDefault reports whether a select statement has a default clause
// (making it non-blocking).
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingOp is one operation that can block a goroutine indefinitely.
type blockingOp struct {
	node ast.Node
	desc string // human form: "channel receive", "net/http round trip", ...
}

// blockingKind selects which operation classes count as blocking for an
// analyzer. ctxflow wants the cancellable ones; locksafe adds the purely
// latency-bound ones (fsync, WaitGroup.Wait) a lock must not sit across.
type blockingKind struct {
	chans   bool // sends, receives, select-without-default, range-over-channel
	http    bool // client round trips
	parpool bool // submits to internal/parpool (block until the pool drains)
	fsync   bool // Sync on a file (*os.File or durable.File)
	wgWait  bool // (*sync.WaitGroup).Wait
}

// findBlockingOps collects blocking operations in one function body, NOT
// descending into nested function literals (a literal is its own execution
// context — callers analyze each separately). Channel operations that form
// a select's comm clauses are attributed to the select itself, which is
// reported once, and only when it lacks a default.
func findBlockingOps(pass *analysis.Pass, names map[string]string, body *ast.BlockStmt, kind blockingKind) []blockingOp {
	if body == nil {
		return nil
	}

	// The channel op inside `case v := <-ch:` / `case ch <- v:` is the
	// select's job, not an independent blocking point.
	commOp := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			switch s := cc.Comm.(type) {
			case *ast.SendStmt:
				commOp[s] = true
			case *ast.AssignStmt:
				if len(s.Rhs) == 1 {
					if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						commOp[u] = true
					}
				}
			case *ast.ExprStmt:
				if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					commOp[u] = true
				}
			}
		}
		return true
	})

	var ops []blockingOp
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate execution context

		case *ast.SelectStmt:
			if kind.chans && !selectHasDefault(n) {
				ops = append(ops, blockingOp{n, "select without default"})
			}

		case *ast.SendStmt:
			if kind.chans && !commOp[n] {
				ops = append(ops, blockingOp{n, "channel send"})
			}

		case *ast.UnaryExpr:
			if kind.chans && n.Op == token.ARROW && !commOp[n] {
				ops = append(ops, blockingOp{n, "channel receive"})
			}

		case *ast.RangeStmt:
			// Attributed to the ranged expression: that is the node the CFG
			// places in the loop-head block, so dataflow walks find it.
			if kind.chans && isChanType(pass.TypeOf(n.X)) {
				ops = append(ops, blockingOp{n.X, "range over channel"})
			}

		case *ast.CallExpr:
			switch {
			case kind.http && isHTTPClientCall(pass, names, n):
				ops = append(ops, blockingOp{n, "net/http round trip"})
			case kind.parpool && hasPathSegment(calleePkgPath(pass, n), "parpool"):
				ops = append(ops, blockingOp{n, "parpool submit"})
			}
			if recv, name, ok := methodCall(pass, n); ok && len(n.Args) == 0 {
				switch {
				case kind.fsync && name == "Sync" && isFile(pass.TypeOf(recv)):
					ops = append(ops, blockingOp{n, "file fsync"})
				case kind.wgWait && name == "Wait" && isNamed(pass.TypeOf(recv), "sync", "WaitGroup"):
					ops = append(ops, blockingOp{n, "WaitGroup wait"})
				}
			}
		}
		return true
	})
	return ops
}

// funcHasContext reports whether a function can see a context: a parameter
// of type context.Context, or any expression of that type referenced in
// the body (covering closures that capture ctx and methods that read a ctx
// field or call req.Context()).
func funcHasContext(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt) bool {
	if ftype != nil && ftype.Params != nil {
		for _, f := range ftype.Params.List {
			if isContextType(pass.TypeOf(f.Type)) {
				return true
			}
		}
	}
	if body == nil {
		return false
	}
	has := false
	ast.Inspect(body, func(n ast.Node) bool {
		if has {
			return false
		}
		switch n.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.CallExpr:
			if e, ok := n.(ast.Expr); ok && isContextType(pass.TypeOf(e)) {
				has = true
			}
		}
		return !has
	})
	return has
}
