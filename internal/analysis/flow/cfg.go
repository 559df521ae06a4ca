// Package flow is the dataflow layer under dinfomap's analyzer suite:
// a per-function control-flow graph over the plain AST and a generic
// forward-dataflow fixpoint engine (RunForward), plus the escape
// helpers BaseVar and IsPackageLevel.
//
// Like the driver it serves (see package analysis), it is built on the
// standard library only — no golang.org/x/tools, no SSA construction.
// Statements are not rewritten into instructions; instead each basic
// block lists the original ast.Node values in execution order, and
// analyses interpret those nodes directly. That keeps positions exact
// for diagnostics and keeps the layer small.
//
// Known, deliberate approximations:
//
//   - Function literals are opaque: a FuncLit's body is not part of the
//     enclosing function's CFG. A client that needs to look inside a
//     closure builds a separate Func for it.
//   - defer and go statements appear as ordinary nodes at their textual
//     position; clients decide their timing semantics (a deferred call
//     runs only at function exit).
//   - panic does not terminate a block: paths through a panic call are
//     kept, which only ever makes must-analyses more conservative.
package flow

import (
	"go/ast"
	"go/token"
)

// Func is the CFG of one function body: basic blocks, each holding the
// function's statements and conditions in execution order. Build it
// with New.
type Func struct {
	// Blocks lists the reachable basic blocks in reverse postorder;
	// Blocks[0] is the entry.
	Blocks []*Block

	entry *Block // function entry
	exit  *Block // synthetic exit every return (and the final fallthrough) leads to; holds no nodes
}

// Block is one basic block: a maximal straight-line node sequence.
type Block struct {
	// Index is the block's position in Func.Blocks (entry is 0).
	Index int
	// Nodes holds the block's statements and conditions in execution
	// order. Conditions of if/for and switch tags appear as bare
	// ast.Expr nodes; a range statement appears as the *ast.RangeStmt
	// itself at the loop head (standing for the per-iteration
	// key/value assignment); everything else is the original ast.Stmt.
	Nodes []ast.Node

	succs, preds []*Block // control-flow edges
}

// builder carries CFG construction state.
type builder struct {
	f *Func
	// labels maps a label name to the block the labeled statement
	// lands on (created on demand so forward gotos resolve).
	labels map[string]*Block
	// labelBreak / labelContinue map loop/switch labels to their
	// break and continue targets.
	labelBreak, labelContinue map[string]*Block
	// pendingLabel is the label of the LabeledStmt currently being
	// entered, consumed by the next loop/switch/select statement.
	pendingLabel string
}

// ctx carries the innermost break/continue targets during the walk.
type ctx struct {
	brk, cont *Block
}

// New builds the CFG of body. It never returns nil, even for an empty
// body (the entry block then falls through to exit directly).
func New(body *ast.BlockStmt) *Func {
	f := &Func{}
	b := &builder{
		f:             f,
		labels:        map[string]*Block{},
		labelBreak:    map[string]*Block{},
		labelContinue: map[string]*Block{},
	}
	f.entry = newBlock()
	f.exit = newBlock()
	var last *Block
	if body != nil {
		last = b.stmts(f.entry, body.List, ctx{})
	} else {
		last = f.entry
	}
	edge(last, f.exit)
	f.finish()
	return f
}

func newBlock() *Block { return &Block{Index: -1} }

// edge adds cur -> next unless either end is missing (unreachable
// fallthrough, or a break/continue with no target in malformed code).
func edge(cur, next *Block) {
	if cur == nil || next == nil {
		return
	}
	cur.succs = append(cur.succs, next)
	next.preds = append(next.preds, cur)
}

// stmts threads the statement list through the CFG starting at cur and
// returns the block control falls out of (nil if the tail is
// unreachable, e.g. after return/break).
func (b *builder) stmts(cur *Block, list []ast.Stmt, c ctx) *Block {
	for _, s := range list {
		cur = b.stmt(cur, s, c)
	}
	return cur
}

// put appends node to cur, allocating a fresh (unreachable, later
// pruned) block when control cannot reach it.
func (b *builder) put(cur *Block, node ast.Node) *Block {
	if cur == nil {
		cur = newBlock()
	}
	cur.Nodes = append(cur.Nodes, node)
	return cur
}

// takeLabel consumes the pending label and registers the given break
// and continue targets for it.
func (b *builder) takeLabel(brk, cont *Block) {
	if b.pendingLabel == "" {
		return
	}
	b.labelBreak[b.pendingLabel] = brk
	if cont != nil {
		b.labelContinue[b.pendingLabel] = cont
	}
	b.pendingLabel = ""
}

func (b *builder) stmt(cur *Block, s ast.Stmt, c ctx) *Block {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.pendingLabel = ""
		return b.stmts(cur, st.List, c)

	case *ast.IfStmt:
		b.pendingLabel = ""
		if st.Init != nil {
			cur = b.put(cur, st.Init)
		}
		cur = b.put(cur, st.Cond)
		then := newBlock()
		join := newBlock()
		edge(cur, then)
		thenEnd := b.stmts(then, st.Body.List, c)
		edge(thenEnd, join)
		if st.Else != nil {
			els := newBlock()
			edge(cur, els)
			elsEnd := b.stmt(els, st.Else, c)
			edge(elsEnd, join)
		} else {
			edge(cur, join)
		}
		return join

	case *ast.ForStmt:
		if st.Init != nil {
			cur = b.put(cur, st.Init)
		}
		head := newBlock()
		body := newBlock()
		after := newBlock()
		post := head
		if st.Post != nil {
			post = newBlock()
		}
		b.takeLabel(after, post)
		edge(cur, head)
		if st.Cond != nil {
			head.Nodes = append(head.Nodes, st.Cond)
			edge(head, body)
			edge(head, after)
		} else {
			edge(head, body)
		}
		bodyEnd := b.stmts(body, st.Body.List, ctx{brk: after, cont: post})
		edge(bodyEnd, post)
		if st.Post != nil {
			post.Nodes = append(post.Nodes, st.Post)
			edge(post, head)
		}
		return after

	case *ast.RangeStmt:
		// The range operand is evaluated once, before the loop; the
		// head re-binds key/value each iteration (the RangeStmt node
		// itself stands for that assignment).
		cur = b.put(cur, st.X)
		head := newBlock()
		body := newBlock()
		after := newBlock()
		b.takeLabel(after, head)
		edge(cur, head)
		head.Nodes = append(head.Nodes, st)
		edge(head, body)
		edge(head, after)
		bodyEnd := b.stmts(body, st.Body.List, ctx{brk: after, cont: head})
		edge(bodyEnd, head)
		return after

	case *ast.SwitchStmt:
		if st.Init != nil {
			cur = b.put(cur, st.Init)
		}
		if st.Tag != nil {
			cur = b.put(cur, st.Tag)
		}
		return b.switchClauses(cur, st.Body.List, c)

	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			cur = b.put(cur, st.Init)
		}
		cur = b.put(cur, st.Assign)
		return b.switchClauses(cur, st.Body.List, c)

	case *ast.SelectStmt:
		join := newBlock()
		b.takeLabel(join, nil)
		for _, cl := range st.Body.List {
			comm := cl.(*ast.CommClause)
			blk := newBlock()
			edge(cur, blk)
			if comm.Comm != nil {
				blk.Nodes = append(blk.Nodes, comm.Comm)
			}
			end := b.stmts(blk, comm.Body, ctx{brk: join, cont: c.cont})
			edge(end, join)
		}
		if len(st.Body.List) == 0 {
			edge(cur, join)
		}
		return join

	case *ast.LabeledStmt:
		// Land the label on a fresh block so (possibly forward) gotos
		// have a stable target, then record it as pending so the inner
		// loop/switch registers its break/continue targets under it.
		target := b.labelTarget(st.Label.Name)
		edge(cur, target)
		b.pendingLabel = st.Label.Name
		end := b.stmt(target, st.Stmt, c)
		b.pendingLabel = ""
		return end

	case *ast.BranchStmt:
		cur = b.put(cur, st)
		switch st.Tok {
		case token.BREAK:
			if st.Label != nil {
				edge(cur, b.labelBreak[st.Label.Name])
			} else {
				edge(cur, c.brk)
			}
		case token.CONTINUE:
			if st.Label != nil {
				edge(cur, b.labelContinue[st.Label.Name])
			} else {
				edge(cur, c.cont)
			}
		case token.GOTO:
			edge(cur, b.labelTarget(st.Label.Name))
		case token.FALLTHROUGH:
			// Handled structurally in switchClauses.
			return cur
		}
		return nil // statements after an unconditional branch are dead

	case *ast.ReturnStmt:
		cur = b.put(cur, st)
		edge(cur, b.f.exit)
		return nil

	case *ast.EmptyStmt:
		return cur

	default:
		// DeclStmt, AssignStmt, IncDecStmt, ExprStmt, SendStmt,
		// DeferStmt, GoStmt: straight-line nodes.
		return b.put(cur, s)
	}
}

// switchClauses builds the clause blocks of a (type) switch. Each
// clause gets its own block; fallthrough chains a clause body into the
// next clause's body.
func (b *builder) switchClauses(cur *Block, clauses []ast.Stmt, c ctx) *Block {
	join := newBlock()
	b.takeLabel(join, nil)
	hasDefault := false
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = newBlock()
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := bodies[i]
		edge(cur, blk)
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		end := b.stmts(blk, cc.Body, ctx{brk: join, cont: c.cont})
		if end != nil && i+1 < len(clauses) && endsInFallthrough(cc.Body) {
			edge(end, bodies[i+1])
		} else {
			edge(end, join)
		}
	}
	if !hasDefault || len(clauses) == 0 {
		edge(cur, join)
	}
	return join
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// labelTarget returns (creating on demand) the block a label lands on.
func (b *builder) labelTarget(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := newBlock()
	b.labels[name] = blk
	return blk
}

// finish prunes blocks unreachable from the entry and lists the
// survivors in Blocks in reverse postorder, numbering them as it goes.
func (f *Func) finish() {
	// Reachability and postorder in one DFS.
	seen := map[*Block]bool{}
	var post []*Block
	var dfs func(*Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(f.entry)
	if !seen[f.exit] {
		// Keep the synthetic exit even when no return reaches it (an
		// infinite loop); it stays edge-less.
		seen[f.exit] = true
		post = append([]*Block{f.exit}, post...)
	}

	f.Blocks = make([]*Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		b := post[i]
		b.Index = len(f.Blocks)
		// Drop edges from pruned (unreachable) predecessors.
		preds := b.preds[:0]
		for _, p := range b.preds {
			if seen[p] {
				preds = append(preds, p)
			}
		}
		b.preds = preds
		f.Blocks = append(f.Blocks, b)
	}
}
