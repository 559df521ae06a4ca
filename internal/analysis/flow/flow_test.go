package flow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"dinfomap/internal/analysis/flow"
)

// parse typechecks a single import-free file and returns its AST.
func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	conf := types.Config{Error: func(err error) { t.Fatalf("typecheck: %v", err) }}
	if _, err := conf.Check("p", fset, []*ast.File{file}, nil); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return file
}

// funcDecl finds the declaration of the named function.
func funcDecl(t *testing.T, file *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no func %s", name)
	return nil
}

// blockOf finds the block containing the call mark("label").
func blockOf(t *testing.T, f *flow.Func, label string) *flow.Block {
	t.Helper()
	for _, b := range f.Blocks {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "mark" {
				continue
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Value == `"`+label+`"` {
				return b
			}
		}
	}
	t.Fatalf("no block with mark(%q)", label)
	return nil
}

// lockState is the must-held lattice for TestRunForwardMustLock.
type lockState struct {
	top  bool
	held bool
}

func lockTransfer(b *flow.Block, in lockState) lockState {
	s := in
	for _, n := range b.Nodes {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "lock":
				s = lockState{held: true}
			case "unlock":
				s = lockState{held: false}
			}
		}
	}
	return s
}

func TestRunForwardMustLock(t *testing.T) {
	file := parse(t, `package p
func mark(s string) {}
func lock()         {}
func unlock()       {}
func f(c bool) {
	lock()
	if c {
		unlock()
		mark("gap")
		lock()
	}
	mark("both")
	if c {
		lock()
	}
	mark("onearm")
	unlock()
}`)
	cfg := flow.New(funcDecl(t, file, "f").Body)
	in := flow.RunForward(cfg, flow.ForwardProblem[lockState]{
		Entry: func() lockState { return lockState{held: false} },
		Top:   func() lockState { return lockState{top: true} },
		Join: func(a, b lockState) lockState {
			if a.top {
				return b
			}
			if b.top {
				return a
			}
			return lockState{held: a.held && b.held}
		},
		Transfer: lockTransfer,
		Equal:    func(a, b lockState) bool { return a == b },
	})

	// Within the then-arm after unlock(): the lock is not held...
	gap := blockOf(t, cfg, "gap")
	// mark("gap") follows unlock() inside the same block, so check the
	// simulated state right before it rather than the block-entry state.
	sGap := in[gap.Index]
	for _, n := range gap.Nodes {
		if es, ok := n.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
					break
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "unlock" {
					sGap = lockState{held: false}
				}
			}
		}
	}
	if sGap.held {
		t.Errorf("lock must not be held between unlock and re-lock")
	}

	// After the branch that unlocks and re-locks: held on both paths.
	both := blockOf(t, cfg, "both")
	if got := in[both.Index]; got.top || !got.held {
		t.Errorf("at mark(both): in = %+v, want held (both paths lock)", got)
	}

	// After a branch that locks on only one arm the must-join loses it —
	// here it stays held only because it was already held before the if;
	// exercise the real one-arm case with a fresh function.
	file2 := parse(t, `package p
func mark(s string) {}
func lock()         {}
func unlock()       {}
func g(c bool) {
	if c {
		lock()
	}
	mark("after")
}`)
	cfg2 := flow.New(funcDecl(t, file2, "g").Body)
	in2 := flow.RunForward(cfg2, flow.ForwardProblem[lockState]{
		Entry: func() lockState { return lockState{held: false} },
		Top:   func() lockState { return lockState{top: true} },
		Join: func(a, b lockState) lockState {
			if a.top {
				return b
			}
			if b.top {
				return a
			}
			return lockState{held: a.held && b.held}
		},
		Transfer: lockTransfer,
		Equal:    func(a, b lockState) bool { return a == b },
	})
	after := blockOf(t, cfg2, "after")
	if got := in2[after.Index]; got.held {
		t.Errorf("at mark(after): lock held on one arm only, must-join should drop it")
	}
}

// TestRunForwardLoopBackEdge checks that state set late in a loop body
// reaches the body's entry through the back edge, as bufalias needs for
// a buffer recycled at the end of one iteration and read in the next.
func TestRunForwardLoopBackEdge(t *testing.T) {
	file := parse(t, `package p
func mark(s string) {}
func set()          {}
func f(n int) {
	for i := 0; i < n; i++ {
		mark("top")
		set()
	}
	mark("after")
}`)
	cfg := flow.New(funcDecl(t, file, "f").Body)
	// May-analysis: has set() run on some path to here?
	in := flow.RunForward(cfg, flow.ForwardProblem[bool]{
		Entry: func() bool { return false },
		Top:   func() bool { return false },
		Join:  func(a, b bool) bool { return a || b },
		Transfer: func(b *flow.Block, s bool) bool {
			for _, n := range b.Nodes {
				if es, ok := n.(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "set" {
							s = true
						}
					}
				}
			}
			return s
		},
		Equal: func(a, b bool) bool { return a == b },
	})
	if !in[blockOf(t, cfg, "top").Index] {
		t.Error("at mark(top): set() later in the body must reach the loop head")
	}
	if !in[blockOf(t, cfg, "after").Index] {
		t.Error("at mark(after): the loop exit follows iterations that called set()")
	}
}
