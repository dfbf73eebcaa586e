// Package opt provides structural AIG optimisation passes used to
// prepare circuits before approximate synthesis, standing in for the
// paper's ABC preprocessing ("strash; resyn2"). Balance rebuilds
// single-fanout conjunction chains as balanced trees, reducing depth
// (and often size, through structural hashing) without changing the
// function.
package opt

import (
	"context"
	"sort"
	"time"

	"accals/internal/aig"
	"accals/internal/runctl"
)

// Balance returns a functionally equivalent graph in which maximal
// single-fanout AND chains are rebuilt as level-balanced trees
// (smallest-level operands combined first, Huffman style).
func Balance(g *aig.Graph) *aig.Graph {
	ng, _ := BalanceCtx(context.Background(), g)
	return ng
}

// balanceCheckStride is how many nodes BalanceCtx processes between
// cancellation checks.
const balanceCheckStride = 1 << 12

// BalanceCtx is Balance with cooperative cancellation: on very large
// graphs the pass checks ctx every few thousand nodes and returns
// (nil, ctx.Err()) when cancelled or past the deadline.
func BalanceCtx(ctx context.Context, g *aig.Graph) (*aig.Graph, error) {
	ctl := runctl.NewController(ctx, 0, time.Time{})
	ng := aig.New(g.Name)
	refs := g.RefCounts()
	copyLit := make([]aig.Lit, g.NumNodes())
	level := make(map[aig.Lit]int) // level of new literals (by node)

	lvlOf := func(l aig.Lit) int { return level[l&^1] }
	mkAnd := func(a, b aig.Lit) aig.Lit {
		out := ng.And(a, b)
		if out.Node() != 0 {
			la, lb := lvlOf(a), lvlOf(b)
			if lb > la {
				la = lb
			}
			if _, seen := level[out&^1]; !seen {
				level[out&^1] = la + 1
			}
		}
		return out
	}

	for id := 0; id < g.NumNodes(); id++ {
		if id%balanceCheckStride == balanceCheckStride-1 {
			if reason, stop := ctl.Stop(); stop {
				return nil, reason.Err()
			}
		}
		switch n := g.NodeAt(id); n.Kind {
		case aig.KindConst:
			copyLit[id] = aig.ConstFalse
		case aig.KindPI:
			copyLit[id] = ng.AddPI(g.PIName(ng.NumPIs()))
		case aig.KindAnd:
			leaves := conjLeaves(g, id, refs)
			ops := make([]aig.Lit, len(leaves))
			for i, l := range leaves {
				ops[i] = copyLit[l.Node()].NotIf(l.IsCompl())
			}
			// Combine the two lowest-level operands first.
			for len(ops) > 1 {
				sort.SliceStable(ops, func(i, j int) bool { return lvlOf(ops[i]) < lvlOf(ops[j]) })
				merged := mkAnd(ops[0], ops[1])
				ops = append([]aig.Lit{merged}, ops[2:]...)
			}
			copyLit[id] = ops[0]
		}
	}
	for i, l := range g.POs() {
		ng.AddPO(copyLit[l.Node()].NotIf(l.IsCompl()), g.POName(i))
	}
	return ng.Sweep(), nil
}

// conjLeaves collects the operand literals of the maximal conjunction
// rooted at AND node id: non-complemented AND fanins with a single
// reference are inlined recursively.
func conjLeaves(g *aig.Graph, id int, refs []int) []aig.Lit {
	var out []aig.Lit
	var walk func(l aig.Lit)
	walk = func(l aig.Lit) {
		n := l.Node()
		if !l.IsCompl() && g.IsAnd(n) && refs[n] == 1 {
			nd := g.NodeAt(n)
			walk(nd.Fanin0)
			walk(nd.Fanin1)
			return
		}
		out = append(out, l)
	}
	nd := g.NodeAt(id)
	walk(nd.Fanin0)
	walk(nd.Fanin1)
	return out
}
