// Package apierror implements the fusionlint analyzer that keeps the
// service's error surface closed: every HTTP error is written through
// the structured envelope helpers in internal/service/apierror.go, and
// every error code is a Code* constant of fusionclient, the API's one
// code registry. The codes are wire contract — fusionclient maps them
// to typed *APIError values, so a hand-rolled envelope or a typo'd code
// silently breaks clients.
package apierror

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"resilientfusion/internal/lint"
)

// RegistryFile is the one file allowed to construct error envelopes.
const RegistryFile = "apierror.go"

// RegistryPkg is the package whose Code* constants are the registry.
const RegistryPkg = "fusionclient"

// Analyzer flags, within internal/service:
//
//   - http.Error calls outside apierror.go — they bypass the structured
//     {"error":{"code","message"}} envelope;
//   - hand-rolled envelope literals (apiErrorJSON / errorEnvelope
//     composites) outside apierror.go;
//   - error codes passed to writeAPIErrorCode that are not declared in
//     fusionclient's Code* registry, or that restate a registered code
//     (as a string literal or another constant) instead of naming its
//     fusionclient constant.
var Analyzer = &lint.Analyzer{
	Name:    "apierror",
	Doc:     "flag error responses that bypass apierror.go's envelope helpers or use codes outside fusionclient's registry",
	Applies: func(path string) bool { return lint.HasPathSuffix(path, "internal/service") },
	Run:     run,
}

func run(pass *lint.Pass) error {
	registry := collectRegistry(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		inRegistry := pass.Filename(f.Pos()) == RegistryFile
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n, registry, inRegistry)
			case *ast.CompositeLit:
				if !inRegistry && isEnvelopeType(pass.Info.TypeOf(n)) {
					pass.Reportf(n.Pos(), "hand-rolled error envelope: write error responses through writeAPIError/writeAPIErrorCode (%s)", RegistryFile)
				}
			}
			return true
		})
	}
	return nil
}

// collectRegistry gathers the Code* string constants of the imported
// fusionclient package: value -> constant name. A package that does not
// import fusionclient has an empty registry, so every code it writes
// is unregistered.
func collectRegistry(pass *lint.Pass) map[string]string {
	registry := make(map[string]string)
	for _, pkg := range pass.Pkg.Imports() {
		if !lint.HasPathSuffix(pkg.Path(), RegistryPkg) {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if c, ok := scope.Lookup(name).(*types.Const); ok && isRegistryConst(c) {
				registry[constant.StringVal(c.Val())] = name
			}
		}
	}
	return registry
}

// isRegistryConst reports whether c is a string Code* constant declared
// in fusionclient.
func isRegistryConst(c *types.Const) bool {
	return c.Pkg() != nil && lint.HasPathSuffix(c.Pkg().Path(), RegistryPkg) &&
		strings.HasPrefix(c.Name(), "Code") && c.Val().Kind() == constant.String
}

func checkCall(pass *lint.Pass, call *ast.CallExpr, registry map[string]string, inRegistry bool) {
	if pkg, name, ok := lint.PkgFunc(pass.Info, call); ok {
		if pkg == "net/http" && name == "Error" && !inRegistry {
			pass.Reportf(call.Pos(), "http.Error bypasses the structured error envelope: use writeAPIError or writeAPIErrorCode (%s)", RegistryFile)
		}
		return
	}
	// writeAPIErrorCode(w, status, code, message): the code argument must
	// name one of fusionclient's Code* constants.
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "writeAPIErrorCode" || len(call.Args) != 4 {
		return
	}
	if fn, ok := pass.Info.Uses[id].(*types.Func); !ok || fn.Pkg() != pass.Pkg {
		return
	}
	arg := call.Args[2]
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return // dynamic code (writeAPIError's own dispatch): not checkable here
	}
	val := constant.StringVal(tv.Value)
	if c := usedConst(pass.Info, arg); c != nil && isRegistryConst(c) {
		return
	}
	constName, registered := registry[val]
	if !registered {
		pass.Reportf(arg.Pos(), "error code %q is not declared in %s's code registry: a typo'd code breaks its typed *APIError mapping", val, RegistryPkg)
		return
	}
	pass.Reportf(arg.Pos(), "error code %q restated instead of named: use the %s.%s constant", val, RegistryPkg, constName)
}

// usedConst resolves an identifier or qualified identifier to the
// constant it names, or nil.
func usedConst(info *types.Info, e ast.Expr) *types.Const {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		c, _ := info.Uses[e].(*types.Const)
		return c
	case *ast.SelectorExpr:
		c, _ := info.Uses[e.Sel].(*types.Const)
		return c
	}
	return nil
}

// isEnvelopeType matches the service's envelope structs by name.
func isEnvelopeType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	n := named.Obj().Name()
	return n == "apiErrorJSON" || n == "errorEnvelope"
}
