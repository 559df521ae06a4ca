package flow

// ForwardProblem describes an iterative forward dataflow analysis over
// a Func. The lattice is supplied functionally:
//
//   - Entry produces the state at the function entry.
//   - Top produces the identity element of Join, used as the optimistic
//     initial state of every block (for a may-analysis this is the
//     empty set; for a must-analysis the "everything holds" element).
//   - Join merges the states flowing in from two predecessors.
//   - Transfer applies one block's effect to its entry state and
//     returns the exit state. It must not mutate its argument.
//   - Equal decides convergence.
type ForwardProblem[S any] struct {
	Entry    func() S
	Top      func() S
	Join     func(S, S) S
	Transfer func(*Block, S) S
	Equal    func(S, S) bool
}

// RunForward iterates p to a fixpoint over f and returns the state at
// each block's entry, indexed by Block.Index.
func RunForward[S any](f *Func, p ForwardProblem[S]) []S {
	n := len(f.Blocks)
	in := make([]S, n)
	out := make([]S, n)
	for i := range out {
		in[i] = p.Top()
		out[i] = p.Top()
	}
	ei := f.entry.Index
	in[ei] = p.Entry()
	out[ei] = p.Transfer(f.entry, in[ei])
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			if b == f.entry {
				continue
			}
			s := p.Top()
			for _, pr := range b.preds {
				s = p.Join(s, out[pr.Index])
			}
			in[b.Index] = s
			ns := p.Transfer(b, s)
			if !p.Equal(ns, out[b.Index]) {
				out[b.Index] = ns
				changed = true
			}
		}
	}
	return in
}
