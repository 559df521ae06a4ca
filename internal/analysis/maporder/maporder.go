// Package maporder flags `range` statements over maps in the
// determinism-critical packages of the distributed pipeline. Go map
// iteration order is deliberately randomized, so any map range whose
// body's effects depend on visit order — encoding wire messages,
// accumulating floats, appending to slices used unsorted — breaks the
// run-to-run reproducibility the paper's quality evaluation (§5)
// depends on. The GossipMap lineage accepts this nondeterminism;
// dinfomap explicitly does not.
//
// A range is accepted when the analyzer can see the standard
// collect-then-sort idiom (the body only appends keys/values to
// slices, each of which is later passed to a sort call in the same
// function), or when the site carries a justification comment:
//
//	//dinfomap:unordered-ok <why order cannot matter here>
package maporder

import (
	"go/ast"
	"go/types"
	"strings"

	"dinfomap/internal/analysis"
)

// criticalPackages are the import paths whose determinism the merge
// shuffle and MDL reduction depend on. The bare last segment is also
// accepted so testdata packages (and the packages themselves under a
// different module name) match.
var criticalPackages = map[string]bool{
	"dinfomap/internal/core":      true,
	"dinfomap/internal/partition": true,
	"dinfomap/internal/mapeq":     true,
	"dinfomap/internal/graph":     true,
	"dinfomap/internal/metrics":   true,
}

var criticalNames = map[string]bool{
	"core": true, "partition": true, "mapeq": true,
	"graph": true, "metrics": true,
}

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name:        "maporder",
	Doc:         "flags map iteration in determinism-critical packages unless sorted before use or justified",
	SuppressKey: "unordered-ok",
	Run:         run,
}

func critical(path string) bool {
	if criticalPackages[path] {
		return true
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return criticalNames[path]
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !critical(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn.Body)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if collectThenSort(pass, body, rng) {
			return true
		}
		pass.Reportf(rng.Pos(),
			"range over map %s in determinism-critical package %s; iterate in sorted key order or justify with //dinfomap:unordered-ok",
			exprString(rng.X), pass.Pkg.Path())
		return true
	})
}

// collectThenSort reports whether rng is the benign collect idiom: every
// statement in its body appends loop variables (or expressions built
// from them) to slice variables, and each such slice is subsequently
// passed to a sort call within the same function body.
func collectThenSort(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) bool {
	var sinks []types.Object
	for _, stmt := range rng.Body.List {
		asg, ok := stmt.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
			return false
		}
		call, ok := asg.Rhs[0].(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) {
			return false
		}
		obj := lvalueObject(pass, asg.Lhs[0])
		if obj == nil {
			return false
		}
		sinks = append(sinks, obj)
	}
	if len(sinks) == 0 {
		return false
	}
	for _, sink := range sinks {
		if !sortedLater(pass, fnBody, rng, sink) {
			return false
		}
	}
	return true
}

// lvalueObject resolves the variable a sink expression denotes: a
// plain identifier's object, or the field object of a one-level
// selector (x.field). Deeper paths are not tracked.
func lvalueObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[x]
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok {
			return sel.Obj()
		}
	}
	return nil
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedLater reports whether obj is passed to a sort call after the
// range statement, anywhere in the function body.
func sortedLater(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(pass, call.Fun) {
			return true
		}
		for _, arg := range call.Args {
			if lvalueObject(pass, arg) == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes the sort and slices package entry points (and
// sort.Sort on a local sort.Interface).
func isSortCall(pass *analysis.Pass, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pkgName.Imported().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(sel.Sel.Name, "Sort")
	}
	return false
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return "expression"
}
