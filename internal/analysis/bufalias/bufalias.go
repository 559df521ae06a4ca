// Package bufalias enforces the pooled-buffer lifetime contract of
// internal/mpi (pool.go): the results of Comm.Alltoallv and
// Comm.AllgatherBytes — and the encoder slabs handed out by SendBuffers.For / SendBuffers.Bufs — are slices
// into per-communicator pools that every subsequent collective (or
// SendBuffers.Reset) overwrites. Holding such a value across the next
// collective silently reads (or corrupts) recycled memory; the
// in-process rank simulation never crashes the way a real MPI job
// would, so the static check is the guardrail.
//
// The analyzer runs a forward may-stale dataflow on the SSA-lite CFG of
// each function (internal/analysis/flow): a variable becomes "pooled"
// when it is assigned a producer call's result or an alias of one
// (projection, slice/index, range binding, append to it, or a call
// taking it, like mpi.NewDecoder(b)); every invalidating call marks the
// pooled variables of its domain stale; any later read of a stale
// variable is reported. A pooled value that escapes the call's extent —
// returned, stored through a parameter/receiver/package variable, or
// captured by a function literal — is reported as an escape, since its
// liveness can no longer be bounded by this function's collectives.
//
// Domains: Comm results are invalidated by any Comm collective
// (Alltoallv, AllgatherBytes, AllreduceI64); SendBuffers slabs are
// invalidated by SendBuffers.Reset; Comm.ReleaseBuffers invalidates
// both. Method matching is by
// receiver type name (Comm, SendBuffers), so testdata can stub the mpi
// surface; package mpi itself is exempt — it implements the pool.
//
// Known limits: staleness does not propagate through method receivers
// (d.Reset(b) does not make d pooled — the decode-before-next-collective
// idiom relies on this), nor through heap stores to non-local state.
//
// False positives carry a justification:
//
//	//dinfomap:bufalias-ok <why this value cannot be overwritten yet>
package bufalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"dinfomap/internal/analysis"
	"dinfomap/internal/analysis/flow"
)

// Analyzer is the bufalias check.
var Analyzer = &analysis.Analyzer{
	Name:        "bufalias",
	Doc:         "flags pooled collective/send-buffer results used after the pool recycles them",
	SuppressKey: "bufalias-ok",
	Run:         run,
}

// Pool domains, one bit each: which invalidators recycle which
// producers' results.
const (
	domComm = 1 << iota
	domSend
)

var producers = map[string]map[string]int{
	"Comm": {
		"Alltoallv":      domComm,
		"AllgatherBytes": domComm,
	},
	"SendBuffers": {
		"Bufs": domSend,
		"For":  domSend,
	},
}

var invalidators = map[string]map[string]int{
	"Comm": {
		"Alltoallv":      domComm,
		"AllgatherBytes": domComm,
		"AllreduceI64":   domComm,
		"ReleaseBuffers": domComm | domSend,
	},
	"SendBuffers": {
		"Reset": domSend,
	},
}

// varState tracks one pooled variable.
type varState struct {
	domain   int
	prod     string    // producer method name, for messages
	prodPos  token.Pos // producing call site
	stale    bool      // an invalidator ran since production
	cause    string    // invalidating method name
	causePos token.Pos
}

// poolState is the dataflow state: the pooled variables in flight.
type poolState map[*types.Var]varState

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && pass.Pkg.Name() == "mpi" {
		return nil // the pool's own implementation
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// funcCheck carries one function's analysis.
type funcCheck struct {
	pass  *analysis.Pass
	outer map[*types.Var]bool // receiver/params: stores through them escape
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	fc := &funcCheck{pass: pass, outer: map[*types.Var]bool{}}
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok {
			if r := sig.Recv(); r != nil {
				fc.outer[r] = true
			}
			for i := 0; i < sig.Params().Len(); i++ {
				fc.outer[sig.Params().At(i)] = true
			}
		}
	}
	cfg := flow.New(fd.Body)
	in := flow.RunForward(cfg, flow.ForwardProblem[poolState]{
		Entry: func() poolState { return poolState{} },
		Top:   func() poolState { return poolState{} },
		Join:  joinPool,
		Transfer: func(b *flow.Block, s poolState) poolState {
			out := clonePool(s)
			for _, n := range b.Nodes {
				fc.applyNode(out, n, false)
			}
			return out
		},
		Equal: equalPool,
	})
	// Reporting pass: re-simulate each block from its solved entry
	// state, this time emitting diagnostics.
	for _, b := range cfg.Blocks {
		s := clonePool(in[b.Index])
		for _, n := range b.Nodes {
			fc.applyNode(s, n, true)
		}
	}
}

func clonePool(s poolState) poolState {
	out := make(poolState, len(s))
	for v, st := range s {
		out[v] = st
	}
	return out
}

func joinPool(a, b poolState) poolState {
	out := clonePool(a)
	for v, sb := range b {
		sa, ok := out[v]
		if !ok {
			out[v] = sb
			continue
		}
		m := sa
		if sb.prodPos < m.prodPos {
			m.prod, m.prodPos = sb.prod, sb.prodPos
		}
		if sb.stale && (!m.stale || sb.causePos < m.causePos) {
			m.stale, m.cause, m.causePos = true, sb.cause, sb.causePos
		}
		out[v] = m
	}
	return out
}

func equalPool(a, b poolState) bool {
	if len(a) != len(b) {
		return false
	}
	for v, sa := range a {
		if sb, ok := b[v]; !ok || sa != sb {
			return false
		}
	}
	return true
}

// applyNode folds one block node into the state; when report is true it
// also emits diagnostics for stale uses and escapes. Evaluation order
// within a node: reads happen first, then invalidations take effect,
// then new definitions.
func (fc *funcCheck) applyNode(s poolState, n ast.Node, report bool) {
	switch st := n.(type) {
	case *ast.RangeStmt:
		// Binding only: the operand was evaluated in the predecessor
		// block and the body has its own blocks.
		src, ok := fc.pooledValue(s, st.X)
		if ok {
			if id, ok := st.Value.(*ast.Ident); ok {
				if v := fc.varOf(id); v != nil {
					s[v] = src
				}
			}
		}
		return
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred/spawned calls run at an unknown point; neither their
		// invalidations nor their uses are attributable here.
		return
	case *ast.AssignStmt:
		if report {
			fc.checkUses(s, n, redefinedIdents(st))
			fc.checkEscapes(s, st)
		}
		fc.applyInvalidations(s, n)
		fc.applyDefs(s, st)
		return
	case *ast.ReturnStmt:
		if report {
			fc.checkUses(s, n, nil)
			for _, res := range st.Results {
				if src, ok := fc.pooledValue(s, res); ok && !src.stale {
					fc.pass.Reportf(res.Pos(),
						"pooled %s result escapes via return; it is valid only until the next collective — "+
							"copy it or justify with //dinfomap:bufalias-ok", src.prod)
				}
			}
		}
		fc.applyInvalidations(s, n)
		return
	case *ast.DeclStmt:
		if report {
			fc.checkUses(s, n, nil)
		}
		fc.applyInvalidations(s, n)
		if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, name := range vs.Names {
					v := fc.varOf(name)
					if v == nil {
						continue
					}
					if src, ok := fc.pooledValue(s, vs.Values[i]); ok {
						s[v] = src
					} else {
						delete(s, v)
					}
				}
			}
		}
	default:
		if report {
			fc.checkUses(s, n, nil)
		}
		fc.applyInvalidations(s, n)
	}
}

// redefinedIdents lists the bare-identifier targets of an assignment:
// those are definitions, not reads.
func redefinedIdents(st *ast.AssignStmt) map[*ast.Ident]bool {
	skip := map[*ast.Ident]bool{}
	for _, lhs := range st.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			skip[id] = true
		}
	}
	return skip
}

// checkUses reports reads of stale pooled variables anywhere in the
// node (function literals report as captures instead, see checkUses'
// FuncLit case).
func (fc *funcCheck) checkUses(s poolState, n ast.Node, skip map[*ast.Ident]bool) {
	ast.Inspect(n, func(sub ast.Node) bool {
		if lit, ok := sub.(*ast.FuncLit); ok {
			fc.checkCapture(s, lit)
			return false
		}
		id, ok := sub.(*ast.Ident)
		if !ok || skip[id] {
			return true
		}
		v := fc.varOf(id)
		if v == nil {
			return true
		}
		if st, ok := s[v]; ok && st.stale {
			fc.pass.Reportf(id.Pos(),
				"use of pooled %s result after %s recycled the buffer; "+
					"the pool reuses it on every collective — copy the data before the next one "+
					"or justify with //dinfomap:bufalias-ok", st.prod, st.cause)
			// Report each variable once: drop it from the state.
			delete(s, v)
		}
		return true
	})
}

// checkCapture reports pooled variables captured by a function literal:
// the closure may run after any number of collectives.
func (fc *funcCheck) checkCapture(s poolState, lit *ast.FuncLit) {
	reported := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(sub ast.Node) bool {
		id, ok := sub.(*ast.Ident)
		if !ok {
			return true
		}
		v := fc.varOf(id)
		if v == nil || reported[v] {
			return true
		}
		if st, ok := s[v]; ok {
			reported[v] = true
			fc.pass.Reportf(id.Pos(),
				"pooled %s result captured by function literal; it is valid only until the next collective — "+
					"copy it or justify with //dinfomap:bufalias-ok", st.prod)
		}
		return true
	})
}

// checkEscapes reports pooled values stored to locations that outlive
// the call: through a parameter, receiver, or package-level variable.
// Stores into local aggregates instead propagate the pooled state to
// the local.
func (fc *funcCheck) checkEscapes(s poolState, st *ast.AssignStmt) {
	for i, lhs := range st.Lhs {
		if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			continue // plain rebinding, handled by applyDefs
		}
		if len(st.Rhs) != len(st.Lhs) {
			continue
		}
		src, ok := fc.pooledValue(s, st.Rhs[i])
		if !ok || src.stale {
			continue
		}
		base := flow.BaseVar(fc.pass.TypesInfo, lhs)
		if base == nil {
			continue
		}
		if fc.outer[base] || flow.IsPackageLevel(base) {
			fc.pass.Reportf(lhs.Pos(),
				"pooled %s result stored to %s, which outlives this call; it is valid only until the next "+
					"collective — copy it or justify with //dinfomap:bufalias-ok", src.prod, base.Name())
		}
	}
}

// applyInvalidations marks pooled variables stale for every
// invalidating call in the node (function literal interiors excluded).
func (fc *funcCheck) applyInvalidations(s poolState, n ast.Node) {
	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, method := fc.methodOn(call)
		dom, ok := invalidators[recv][method]
		if !ok {
			return true
		}
		for v, st := range s {
			if st.domain&dom != 0 && !st.stale {
				st.stale = true
				st.cause = method
				st.causePos = call.Pos()
				s[v] = st
			}
		}
		return true
	})
}

// applyDefs rebinds assigned variables: a producer call's result (or an
// alias of a pooled value) makes the variable pooled; anything else
// clears it. Stores into local aggregates weakly taint the aggregate.
func (fc *funcCheck) applyDefs(s poolState, st *ast.AssignStmt) {
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		if len(st.Rhs) == len(st.Lhs) {
			rhs = st.Rhs[i]
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			v := fc.varOf(id)
			if v == nil {
				continue
			}
			if rhs == nil {
				// Multi-value assignment from a call: not a producer.
				delete(s, v)
				continue
			}
			if src, ok := fc.pooledValue(s, rhs); ok {
				s[v] = src
			} else {
				delete(s, v)
			}
			continue
		}
		// Store through a projection: if the base is local, the
		// aggregate now may hold the pooled value.
		if rhs == nil {
			continue
		}
		if src, ok := fc.pooledValue(s, rhs); ok && !src.stale {
			base := flow.BaseVar(fc.pass.TypesInfo, lhs)
			if base != nil && !fc.outer[base] && !flow.IsPackageLevel(base) {
				if _, exists := s[base]; !exists {
					s[base] = src
				}
			}
		}
	}
}

// pooledValue reports whether evaluating e yields a pooled value: a
// producer call, or an alias of a pooled variable (pooledSource).
func (fc *funcCheck) pooledValue(s poolState, e ast.Expr) (varState, bool) {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		recv, method := fc.methodOn(call)
		if dom, ok := producers[recv][method]; ok {
			return varState{domain: dom, prod: method, prodPos: call.Pos()}, true
		}
	}
	return fc.pooledSource(s, e)
}

// pooledSource resolves e to the state of a pooled variable it aliases:
// projections, indexing, slicing, dereference, append to a pooled
// slice, and non-basic-typed calls taking a pooled argument (a decoder
// wrapping a pooled buffer stays a view into it).
func (fc *funcCheck) pooledSource(s poolState, e ast.Expr) (varState, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v := fc.varOf(x)
		if v == nil {
			return varState{}, false
		}
		st, ok := s[v]
		return st, ok
	case *ast.IndexExpr:
		return fc.pooledSource(s, x.X)
	case *ast.SliceExpr:
		return fc.pooledSource(s, x.X)
	case *ast.SelectorExpr:
		return fc.pooledSource(s, x.X)
	case *ast.StarExpr:
		return fc.pooledSource(s, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return fc.pooledSource(s, x.X)
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
			// append may keep the first argument's backing array; the
			// copied-in elements do not alias their sources.
			return fc.pooledSource(s, x.Args[0])
		}
		// A call result of non-basic type with a pooled argument may be
		// a view into the buffer (e.g. mpi.NewDecoder(b)).
		if t := fc.pass.TypesInfo.TypeOf(x); t != nil {
			if _, basic := t.Underlying().(*types.Basic); basic {
				return varState{}, false
			}
		}
		for _, arg := range x.Args {
			if src, ok := fc.pooledSource(s, arg); ok {
				return src, true
			}
		}
	}
	return varState{}, false
}

// methodOn resolves a call to (receiver type name, method name) when it
// is a method call on a named receiver; ("", "") otherwise.
func (fc *funcCheck) methodOn(call *ast.CallExpr) (string, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := fc.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	return named.Obj().Name(), fn.Name()
}

func (fc *funcCheck) varOf(id *ast.Ident) *types.Var {
	v, _ := fc.pass.TypesInfo.ObjectOf(id).(*types.Var)
	return v
}
