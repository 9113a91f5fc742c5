package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"resilientfusion/internal/lint"
)

// testOnlyAllowlist names the exported functions and methods under
// internal/ that may have no non-test reference, each with the test
// packages that need it or the reason it stays. Keys are
// "pkg.Func" or "pkg.Type.Method", pkg being the last path element.
var testOnlyAllowlist = map[string]string{
	"failure.CrashNode":       "core and failure tests plan node crashes",
	"failure.KillProcess":     "e2e and failure tests plan process kills",
	"failure.Plan.ArmReal":    "core, e2e and failure tests arm plans on the real runtime",
	"hsi.Cube.Clone":          "colormap, hsi and service tests copy cubes",
	"hsi.Cube.Equal":          "core, hsi and pct tests compare cubes",
	"hsi.Cube.Pixel":          "hsi and pct tests read single pixels",
	"hsi.Cube.SetPixel":       "hsi and pct tests build cubes pixel by pixel",
	"linalg.Angle":            "hsi and linalg tests measure signature separation",
	"linalg.Matrix.Equal":     "core, linalg and pct tests compare matrices",
	"linalg.Matrix.Mul":       "linalg tests and the root covariance benchmarks",
	"linalg.Matrix.Transpose": "linalg tests and the root covariance benchmarks",
	"linalg.Vector.Clone":     "linalg and spectral tests copy vectors",
	"linttest.Run":            "the analyzer test driver of the internal/lint/* tests",
	"pct.CovarianceSum":       "pct tests and the root covariance benchmarks",
	"pct.MeanOf":              "pct tests and the root covariance benchmarks",
	"scplib.RealSystem.Live":  "scplib and service tests wait for threads to be reaped",
	"spectral.Screen":         "the sequential reference ScreenBatched is checked against",
}

// TestNoTestOnlyExports guards against exported code that only tests
// reach: every exported package-level func, and every exported method
// that implements no interface method, declared in a non-test file under
// internal/ must have a non-test reference in the root module or in
// bench/, or an entry in testOnlyAllowlist. fusionclient is the public
// SDK and out of scope. Allowlist entries that are no longer needed fail
// too, so the list only shrinks with the code it excuses.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := lint.Load("../..", []string{"./..."}, func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	bench, err := lint.Load("../../bench", []string{"./..."}, func(path string) bool {
		return path == "resilientfusion/bench" || strings.HasPrefix(path, "resilientfusion/bench/")
	})
	if err != nil {
		t.Fatal(err)
	}

	decls := exportedDecls(root)
	ifaces := interfacesByMethod(append(root, bench...))
	used := map[string]bool{}
	for _, pkg := range root {
		markUses(pkg, decls, used)
	}
	for _, pkg := range bench {
		markUses(pkg, nil, used)
	}

	var unreached []string
	allowUsed := map[string]bool{}
	for key, d := range decls {
		if used[key] || implementsInterface(d.fn, ifaces) {
			continue
		}
		if _, ok := testOnlyAllowlist[d.name]; ok {
			allowUsed[d.name] = true
			continue
		}
		unreached = append(unreached, fmt.Sprintf("%s: %s", d.pos, d.name))
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s has no non-test reference in the module or bench/", u)
	}
	for name := range testOnlyAllowlist {
		if !allowUsed[name] {
			t.Errorf("allowlist entry %s is stale: it has a non-test reference or no longer exists", name)
		}
	}
}

// exportDecl is one candidate declaration of TestNoTestOnlyExports.
type exportDecl struct {
	fn       *types.Func
	name     string // pkg.Func or pkg.Type.Method
	pos      string // file:line relative to the module root
	from, to token.Pos
}

// declKey identifies a function or method across separately
// type-checked packages, where the same declaration is a different
// *types.Func object in its own package and in its importers.
func declKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// exportedDecls collects the exported funcs and methods declared in the
// non-test files of packages under internal/.
func exportedDecls(pkgs []*lint.Package) map[string]*exportDecl {
	decls := map[string]*exportDecl{}
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.ImportPath, "resilientfusion/internal/") {
			continue
		}
		short := pkg.ImportPath[strings.LastIndex(pkg.ImportPath, "/")+1:]
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := declKey(fn)
				name := short + "." + strings.TrimPrefix(key, pkg.ImportPath+".")
				p := pkg.Fset.Position(fd.Pos())
				rel := filepath.Join(strings.TrimPrefix(pkg.ImportPath, "resilientfusion/"), filepath.Base(p.Filename))
				decls[key] = &exportDecl{
					fn:   fn,
					name: name,
					pos:  fmt.Sprintf("%s:%d", rel, p.Line),
					from: fd.Pos(),
					to:   fd.End(),
				}
			}
		}
	}
	return decls
}

// markUses records every function or method pkg refers to. A use inside
// the referenced declaration's own body (recursion) does not count; decls
// carries the positions for that check and is nil for a package loaded
// with another file set.
func markUses(pkg *lint.Package, decls map[string]*exportDecl, used map[string]bool) {
	for id, obj := range pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		key := declKey(fn)
		if d := decls[key]; d != nil && id.Pos() >= d.from && id.Pos() < d.to {
			continue
		}
		used[key] = true
	}
}

// interfacesByMethod indexes, by method name, every interface type the
// loaded packages and their imports declare or spell out (plus error).
func interfacesByMethod(pkgs []*lint.Package) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

// implementsInterface reports whether method fn satisfies a method of
// some interface its receiver type implements.
func implementsInterface(fn *types.Func, byName map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	methods := types.NewMethodSet(t)
	for _, it := range byName[fn.Name()] {
		if satisfies(methods, it) {
			return true
		}
	}
	return false
}

// satisfies is types.Implements across type universes: an interface
// from an importer's export data names the receiver package's types
// through other objects than the receiver's own source-checked package,
// so methods match by package path, name and signature text.
func satisfies(methods *types.MethodSet, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		want := it.Method(i)
		found := false
		for j := 0; j < methods.Len() && !found; j++ {
			have := methods.At(j).Obj()
			found = have.Name() == want.Name() &&
				(want.Exported() || have.Pkg().Path() == want.Pkg().Path()) &&
				sigText(have.Type()) == sigText(want.Type())
		}
		if !found {
			return false
		}
	}
	return true
}

// sigText spells a signature's parameter and result types without the
// names, which an interface and its implementations need not share.
func sigText(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
