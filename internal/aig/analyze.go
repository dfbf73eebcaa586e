package aig

import (
	"slices"

	"accals/internal/bitset"
)

// Levels returns the logic level of every node: 0 for the constant and
// PIs, 1 + max(fanin levels) for AND nodes.
func (g *Graph) Levels() []int {
	lv := make([]int, len(g.nodes))
	for id, n := range g.nodes {
		if n.Kind == KindAnd {
			l0 := lv[n.Fanin0.Node()]
			l1 := lv[n.Fanin1.Node()]
			if l0 < l1 {
				l0 = l1
			}
			lv[id] = l0 + 1
		}
	}
	return lv
}

// Depth returns the maximum level over all primary outputs.
func (g *Graph) Depth() int {
	lv := g.Levels()
	d := 0
	for _, l := range g.pos {
		if lv[l.Node()] > d {
			d = lv[l.Node()]
		}
	}
	return d
}

// Fanouts is a flat fanout index: Of(id) lists, in ascending order,
// the ids of the AND nodes that use node id as a fanin. Primary outputs
// are not included; use RefCounts for reference counting that includes
// POs.
type Fanouts struct {
	// Node id's fanouts are ids[off[id]:off[id+1]].
	off, ids []int
}

// Of returns the fanouts of node id. The slice aliases the index.
func (f *Fanouts) Of(id int) []int {
	return f.ids[f.off[id]:f.off[id+1]:f.off[id+1]]
}

// Fanouts returns the fanout index of g.
func (g *Graph) Fanouts() *Fanouts {
	f := new(Fanouts)
	g.FanoutsInto(f)
	return f
}

// FanoutsInto rebuilds f as the fanout index of g, reusing its buffers:
// a counting pass sizes every node's list, and a placement pass in node
// order fills them.
func (g *Graph) FanoutsInto(f *Fanouts) {
	n := len(g.nodes)
	f.off = slices.Grow(f.off[:0], n+1)[:n+1]
	clear(f.off)
	for _, nd := range g.nodes {
		if nd.Kind != KindAnd {
			continue
		}
		f.off[nd.Fanin0.Node()+1]++
		if nd.Fanin1.Node() != nd.Fanin0.Node() {
			f.off[nd.Fanin1.Node()+1]++
		}
	}
	for id := 1; id <= n; id++ {
		f.off[id] += f.off[id-1]
	}
	f.ids = slices.Grow(f.ids[:0], f.off[n])[:f.off[n]]
	// off[x] serves as x's write cursor and ends at x's end, which is
	// x+1's start; shifting by one restores the starts.
	for id, nd := range g.nodes {
		if nd.Kind != KindAnd {
			continue
		}
		x := nd.Fanin0.Node()
		f.ids[f.off[x]] = id
		f.off[x]++
		if y := nd.Fanin1.Node(); y != x {
			f.ids[f.off[y]] = id
			f.off[y]++
		}
	}
	copy(f.off[1:], f.off[:n])
	f.off[0] = 0
}

// RefCounts returns the number of references to each node from AND
// fanins and primary outputs.
func (g *Graph) RefCounts() []int {
	refs := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		if n.Kind != KindAnd {
			continue
		}
		refs[n.Fanin0.Node()]++
		refs[n.Fanin1.Node()]++
	}
	for _, l := range g.pos {
		refs[l.Node()]++
	}
	return refs
}

// Reachable returns the set of node ids reachable from the primary
// outputs through fanin edges (the "live" logic).
func (g *Graph) Reachable() *bitset.Set {
	live := bitset.New(len(g.nodes))
	stack := make([]int, 0, len(g.pos))
	for _, l := range g.pos {
		if !live.Has(l.Node()) {
			live.Add(l.Node())
			stack = append(stack, l.Node())
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := g.nodes[id]
		if n.Kind != KindAnd {
			continue
		}
		for _, f := range [2]int{n.Fanin0.Node(), n.Fanin1.Node()} {
			if !live.Has(f) {
				live.Add(f)
				stack = append(stack, f)
			}
		}
	}
	live.Add(0)
	return live
}

// NumLiveAnds returns the number of AND nodes reachable from the POs.
func (g *Graph) NumLiveAnds() int {
	live := g.Reachable()
	c := 0
	live.ForEach(func(id int) {
		if g.nodes[id].Kind == KindAnd {
			c++
		}
	})
	return c
}

// TFO returns the transitive fanout of node id (including id itself)
// as a bit set over node ids, using the given fanout index.
func (g *Graph) TFO(id int, fanouts *Fanouts) *bitset.Set {
	set := bitset.New(len(g.nodes))
	set.Add(id)
	stack := []int{id}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range fanouts.Of(v) {
			if !set.Has(w) {
				set.Add(w)
				stack = append(stack, w)
			}
		}
	}
	return set
}

// TFI returns the transitive fanin of node id (including id itself).
func (g *Graph) TFI(id int) *bitset.Set {
	set := bitset.New(len(g.nodes))
	set.Add(id)
	stack := []int{id}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := g.nodes[v]
		if n.Kind != KindAnd {
			continue
		}
		for _, f := range [2]int{n.Fanin0.Node(), n.Fanin1.Node()} {
			if !set.Has(f) {
				set.Add(f)
				stack = append(stack, f)
			}
		}
	}
	return set
}

// TFOSet returns the union of the transitive fanouts of the source
// nodes (including the sources themselves) as a bit set over node ids,
// using the given fanout index. A nil or empty source list yields an
// empty set.
func (g *Graph) TFOSet(srcs []int, fanouts *Fanouts) *bitset.Set {
	set := bitset.New(len(g.nodes))
	var stack []int
	for _, s := range srcs {
		if !set.Has(s) {
			set.Add(s)
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range fanouts.Of(v) {
			if !set.Has(w) {
				set.Add(w)
				stack = append(stack, w)
			}
		}
	}
	return set
}

// FanoutBall returns the set of nodes within radius fanout edges of
// any seed node (seeds included): the targets whose depth-bounded TFI
// window can contain a seed. Distances are per-node minima over all
// seeds, so the ball is exactly the union of single-seed balls.
func (g *Graph) FanoutBall(seeds *bitset.Set, fanouts *Fanouts, radius int) *bitset.Set {
	set := bitset.New(len(g.nodes))
	dist := make([]int, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	seeds.ForEach(func(id int) {
		dist[id] = 0
		set.Add(id)
		queue = append(queue, id)
	})
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] >= radius {
			continue
		}
		for _, w := range fanouts.Of(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				set.Add(w)
				queue = append(queue, w)
			}
		}
	}
	return set
}

// TFIWithin returns the set of nodes reachable from any seed through
// at most depth fanin edges (seeds included) — the depth-bounded
// backward closure used to over-approximate which structural-hash
// probes a change can influence.
func (g *Graph) TFIWithin(seeds *bitset.Set, depth int) *bitset.Set {
	set := bitset.New(len(g.nodes))
	dist := make([]int, len(g.nodes))
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	seeds.ForEach(func(id int) {
		dist[id] = 0
		set.Add(id)
		queue = append(queue, id)
	})
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] >= depth {
			continue
		}
		n := g.nodes[v]
		if n.Kind != KindAnd {
			continue
		}
		for _, f := range [2]int{n.Fanin0.Node(), n.Fanin1.Node()} {
			if dist[f] < 0 {
				dist[f] = dist[v] + 1
				set.Add(f)
				queue = append(queue, f)
			}
		}
	}
	return set
}

// ShortestFanoutDistance returns the length (in edges) of the shortest
// directed path from node src to node dst through fanout edges, or -1
// if no such path exists. A distance of 0 means src == dst.
func (g *Graph) ShortestFanoutDistance(src, dst int, fanouts *Fanouts) int {
	if src == dst {
		return 0
	}
	dist := make(map[int]int, 64)
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range fanouts.Of(v) {
			if _, seen := dist[w]; seen {
				continue
			}
			dist[w] = dist[v] + 1
			if w == dst {
				return dist[w]
			}
			queue = append(queue, w)
		}
	}
	return -1
}

// MFFCSize returns the size of the maximum fanout-free cone of node id:
// the number of AND nodes (including id) that would become dead if all
// references to id were removed. refs must come from RefCounts.
// The slice is restored before returning, so it can be reused.
func (g *Graph) MFFCSize(id int, refs []int) int {
	if g.nodes[id].Kind != KindAnd {
		return 0
	}
	var freed []int
	size := g.mffcDeref(id, refs, &freed)
	// Restore reference counts.
	for _, f := range freed {
		refs[f]++
	}
	return size
}

// MFFC is reusable scratch for sizing the maximum fanout-free cone of
// one node at a time and asking how much of it a replacement keeps
// alive. Mark marks a node's cone in one dereference pass; Kept then
// answers for any SN set of that node without touching refs again. A
// scratch serves one goroutine.
type MFFC struct {
	g     *Graph
	refs  []int
	in    []uint32 // in[x] == inEpoch: x lies in the marked cone
	seen  []uint32 // seen[x] == seenEpoch: the current Kept walk visited x
	freed []int
	stack []int

	inEpoch, seenEpoch uint32
}

// NewMFFC returns MFFC scratch for g over refs, which must come from
// RefCounts. Mark mutates refs and restores it before returning, so
// refs may be shared with other readers on the same goroutine.
func (g *Graph) NewMFFC(refs []int) *MFFC {
	return &MFFC{g: g, refs: refs, in: make([]uint32, len(g.nodes)), seen: make([]uint32, len(g.nodes))}
}

// Mark marks the MFFC of node id and returns its size, as MFFCSize
// does. The cone stays marked until the next Mark.
func (m *MFFC) Mark(id int) int {
	if m.g.nodes[id].Kind != KindAnd {
		m.inEpoch = nextEpoch(m.in, m.inEpoch)
		return 0
	}
	m.freed = m.freed[:0]
	size := m.g.mffcDeref(id, m.refs, &m.freed)
	m.inEpoch = nextEpoch(m.in, m.inEpoch)
	m.in[id] = m.inEpoch
	// The dereference recursed into exactly the AND nodes whose count
	// reached zero: the cone below id.
	for _, f := range m.freed {
		if m.refs[f] == 0 && m.g.nodes[f].Kind == KindAnd {
			m.in[f] = m.inEpoch
		}
	}
	for _, f := range m.freed {
		m.refs[f]++
	}
	return size
}

// Kept returns how many nodes of the marked cone lie in the transitive
// fanin of sns, sns included: the part of the cone that survives
// replacing the root by a function of sns. Mark's size minus Kept is
// the MFFC size with sns held externally referenced. The two agree
// because every non-root cone node has all its fanouts inside the
// cone: a cone node feeds an SN only through cone nodes, so the walk
// never leaves the cone, and every cone node it misses loses all its
// references once the root does.
func (m *MFFC) Kept(sns []int) int {
	m.seenEpoch = nextEpoch(m.seen, m.seenEpoch)
	stack := m.stack[:0]
	kept := 0
	visit := func(x int) {
		if m.in[x] == m.inEpoch && m.seen[x] != m.seenEpoch {
			m.seen[x] = m.seenEpoch
			kept++
			stack = append(stack, x)
		}
	}
	for _, s := range sns {
		visit(s)
	}
	for len(stack) > 0 {
		n := m.g.nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		visit(n.Fanin0.Node())
		visit(n.Fanin1.Node())
	}
	m.stack = stack
	return kept
}

// nextEpoch advances a stamp array's epoch, clearing the array when the
// counter wraps so that no stale stamp can match.
func nextEpoch(stamps []uint32, epoch uint32) uint32 {
	epoch++
	if epoch == 0 {
		clear(stamps)
		epoch = 1
	}
	return epoch
}

// mffcDeref recursively dereferences the fanins of id, counting nodes
// whose reference count drops to zero. Every decrement is recorded in
// freed so the caller can undo it.
func (g *Graph) mffcDeref(id int, refs []int, freed *[]int) int {
	n := g.nodes[id]
	size := 1
	for _, f := range [2]Lit{n.Fanin0, n.Fanin1} {
		fid := f.Node()
		refs[fid]--
		*freed = append(*freed, fid)
		if refs[fid] == 0 && g.nodes[fid].Kind == KindAnd {
			size += g.mffcDeref(fid, refs, freed)
		}
	}
	return size
}
