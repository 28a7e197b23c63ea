// Package checkers holds unicolint's project-specific analyzers. Each one
// mechanizes an invariant a previous PR made load-bearing:
//
//   - detclock: bit-identical crash/resume requires that search code only
//     observes simulated time (internal/simclock) and seeded *rand.Rand.
//   - nodefaultclient: the dist transport hang fixed in PR 2 came from
//     http.DefaultClient's missing timeout; only internal/dist may build
//     HTTP clients (always with a timeout), build requests or send them.
//   - metricname: the telemetry contract (PR 1) names every series
//     unico_*; duplicate registrations silently merge families.
//   - maporder: Go map iteration order is random, the classic way to leak
//     nondeterminism into checkpoints, flight records and hashes.
//   - atomicwrite: crash safety (PR 3) depends on the fsync-then-rename
//     discipline for every persisted artifact; internal/durable is the one
//     package that may implement it.
//
// Four analyzers are CFG/dataflow-based (built on unico/lint/cfg and
// unico/lint/flow):
//
//   - ctxflow: blocking work must be cancellable — no context.Background/
//     TODO outside main, no http.NewRequest, a ctx in scope wherever the
//     code blocks.
//   - goleak: every go statement needs a provable exit path.
//   - locksafe: mutexes released on every path and never held across
//     blocking operations.
//   - durerr: in internal/durable, Sync/Rename/Close-on-written-file
//     errors must not be discarded.
package checkers

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"unico/lint/analysis"
)

// All returns fresh instances of every analyzer, in reporting order. Fresh
// instances matter: metricname carries cross-package state (the duplicate
// registration table) that must reset between driver runs.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		NewDetClock(),
		NewNoDefaultClient(),
		NewMetricName(),
		NewMapOrder(),
		NewAtomicWrite(),
		NewCtxFlow(),
		NewGoLeak(),
		NewLockSafe(),
		NewDurErr(),
	}
}

// importNames maps the local name of each import in file to its import
// path, resolving renames ("mrand \"math/rand\"") and defaulting to the
// path's last element.
func importNames(file *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
			if name == "_" || name == "." {
				continue
			}
		}
		out[name] = path
	}
	return out
}

// pkgSelector resolves call/selector expressions of the form pkgname.Ident
// where pkgname is a file-level import. Returns the import path and the
// selected name, or ok=false for selectors on values ("c.Now") or locals
// shadowing the package name.
func pkgSelector(pass *analysis.Pass, names map[string]string, sel *ast.SelectorExpr) (path, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	path, isImport := names[id.Name]
	if !isImport {
		return "", "", false
	}
	// A local variable may shadow the import name; trust type info when
	// available, the import table otherwise.
	if pass.TypesInfo != nil {
		if obj := pass.TypesInfo.Uses[id]; obj != nil {
			if _, isPkg := obj.(*types.PkgName); !isPkg {
				return "", "", false
			}
		}
	}
	return path, sel.Sel.Name, true
}

// hasPathSegment reports whether importPath contains segment as a whole
// path element ("unico/internal/core" has "core" but not "cor").
func hasPathSegment(importPath, segment string) bool {
	for _, el := range strings.Split(importPath, "/") {
		if el == segment {
			return true
		}
	}
	return false
}

// anySegment reports whether importPath contains any of the segments.
func anySegment(importPath string, segments []string) bool {
	for _, s := range segments {
		if hasPathSegment(importPath, s) {
			return true
		}
	}
	return false
}
