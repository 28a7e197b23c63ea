package checkers

import (
	"go/ast"

	"unico/lint/analysis"
)

// packageLevelGets are the net/http convenience functions that ride on
// http.DefaultClient and therefore have no timeout: a wedged PPA server
// hangs the whole co-search, which is exactly the failure PR 2's dist
// hardening removed.
var packageLevelGets = map[string]bool{
	"Get": true, "Post": true, "Head": true, "PostForm": true,
}

// NewNoDefaultClient returns the HTTP-client hygiene analyzer. Everything
// outside internal/dist is forbidden from making HTTP exchanges of its own:
// http.DefaultClient (in any expression), the package-level Get/Post/Head/
// PostForm helpers, http.Client composite literals that do not set Timeout,
// and — since a hand-rolled exchange is where the run-ID, trace-parent and
// body-cap rules drift — building a request (http.NewRequest,
// http.NewRequestWithContext) or sending one ((*http.Client).Do).
// internal/dist is the one sanctioned transport and is exempt.
func NewNoDefaultClient() *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "nodefaultclient",
		Doc: "forbid http.DefaultClient, http.Get/Post/Head/PostForm, zero-timeout http.Client " +
			"literals, http.NewRequest* and (*http.Client).Do outside internal/dist; " +
			"the dist package is the only sanctioned HTTP transport",
	}
	a.Run = func(pass *analysis.Pass) error {
		if hasPathSegment(pass.Path, "dist") {
			return nil
		}
		for _, file := range pass.Files {
			names := importNames(file)
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					path, name, ok := pkgSelector(pass, names, n)
					if !ok || path != "net/http" {
						return true
					}
					if name == "DefaultClient" {
						pass.Reportf(n.Pos(),
							"http.DefaultClient has no timeout and hangs on a wedged server; use internal/dist or a client with an explicit Timeout")
					}
					if packageLevelGets[name] {
						pass.Reportf(n.Pos(),
							"http.%s uses http.DefaultClient (no timeout); use internal/dist or a client with an explicit Timeout", name)
					}
					if name == "NewRequest" || name == "NewRequestWithContext" {
						pass.Reportf(n.Pos(),
							"http.%s hand-rolls an exchange outside the sanctioned transport; call a dist.Client", name)
					}
				case *ast.CallExpr:
					recv, name, ok := methodCall(pass, n)
					if ok && name == "Do" && pass.TypesInfo != nil && isNamed(pass.TypesInfo.TypeOf(recv), "net/http", "Client") {
						pass.Reportf(n.Pos(),
							"(*http.Client).Do hand-rolls an exchange outside the sanctioned transport; call a dist.Client")
					}
				case *ast.CompositeLit:
					sel, ok := n.Type.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					path, name, ok := pkgSelector(pass, names, sel)
					if !ok || path != "net/http" || name != "Client" {
						return true
					}
					if !literalSetsField(n, "Timeout") {
						pass.Reportf(n.Pos(),
							"http.Client literal without Timeout never times out; set Timeout or use internal/dist")
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// literalSetsField reports whether composite literal lit sets the named
// field. Positional http.Client literals are vanishingly rare and would set
// every field, so only keyed elements are considered — an unkeyed literal
// with elements is conservatively treated as setting the field.
func literalSetsField(lit *ast.CompositeLit, field string) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return true // positional literal: all fields set
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
			return true
		}
	}
	return false
}
