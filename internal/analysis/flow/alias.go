package flow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Escape helpers: the structural queries clients need to classify
// where a value flows (BaseVar, IsPackageLevel).

// BaseVar resolves the root variable of an lvalue or projection chain —
// selectors, indexing, slicing, dereference, address-of, parens — so
// `(&rs.stats[i]).n` resolves to rs. Qualified package identifiers
// (pkg.Var) resolve to the package-level variable. Returns nil when the
// chain does not bottom out in a variable (calls, literals, etc.).
func BaseVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					v, _ := info.ObjectOf(x.Sel).(*types.Var)
					return v
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.Ident:
			v, _ := info.ObjectOf(x).(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// IsPackageLevel reports whether v is declared at package scope, i.e. a
// store through it outlives any function.
func IsPackageLevel(v *types.Var) bool {
	if v == nil {
		return false
	}
	s := v.Parent()
	return s != nil && s.Parent() == types.Universe
}
