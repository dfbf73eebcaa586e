package estimator

import (
	"cmp"
	"math/bits"
	"slices"

	"accals/internal/aig"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// resim resimulates what a conflict-free LAC set changes on a base
// simulation, with buffers reused across calls and rounds. Each
// measurement shard owns one.
//
// Targets apply in ascending id and each replacement reads its SNs
// through the changes made so far, which is what lac.Apply's rebuild
// computes when one LAC's SN lies in the fanout cone of another
// target. The pass visits, in ascending id, the targets and the nodes
// with a changed fanin, found through the fanout index. A changed node
// keeps a mask of the pattern words on which its value changed, so a
// fanout recomputes only the blocks of 64 words where one of its fanins
// changed, and the changed words alone where they are few. The node
// stores its new values block by block: a block with at least denseMin
// changed words stores every word of the block, any other block only
// its changed words, in ascending order. The scratch is sized by what a
// call changes, never by the graph times the pattern words.
type resim struct {
	g    *aig.Graph
	vals []simulate.Vec // the base simulation's node values
	fo   *aig.Fanouts
	// words is the pattern word count, mw the uint64 words of one
	// changed-word mask and last the final-word mask.
	words, mw int
	last      uint64
	// at[id] is one more than node id's index among the changed nodes,
	// 0 when unchanged; pending holds a bit per node queued for a visit.
	// Both are all zero between calls.
	at      []int32
	pending []uint64
	// Changed node k is ids[k]; its changed-word mask is
	// masks[k*mw:(k+1)*mw] and its stored values, block after block,
	// start at cv[off[k]]. An Estimator lends cv its buffer per call.
	ids   []int32
	off   []int32
	masks []uint64
	cv    []uint64
	// set is the call's LAC set in ascending target order, nv a target's
	// new value and sn the SN values read through the changes. xa and nb
	// are scratch for one block's values.
	set    []*lac.LAC
	nv     simulate.Vec
	sn     [3]simulate.Vec
	xa, nb [64]uint64
	// The outputs: cw lists the pattern words on which some output
	// changed, ascending, and output j's new value at word cw[i] is
	// pl[i*numPOs+j]. cwm is cw as a mask.
	cw  []int
	cwm []uint64
	pl  []uint64
}

// denseMin is the number of changed words from which a block is stored
// and recomputed whole: at most 4 words stored per changed one, and a
// tight loop in place of a walk over the changed words.
const denseMin = 16

// denseCompute is the number of words a fanin changed from which a
// block is recomputed whole rather than word by word.
const denseCompute = 24

// bind points the resimulator at a graph, its base simulation and its
// fanout index, growing the per-node state to the graph.
func (r *resim) bind(g *aig.Graph, res *simulate.Result, fo *aig.Fanouts) {
	r.g, r.vals, r.fo = g, res.NodeVals, fo
	r.words, r.last = res.Patterns.Words(), res.Patterns.LastMask()
	r.mw = (r.words + 63) / 64
	nn := g.NumNodes()
	// Grown entries past the old length were cleared when last used, or
	// never set, so the all-zero invariant holds.
	r.at = slices.Grow(r.at, nn)[:nn]
	r.pending = slices.Grow(r.pending, (nn+63)/64)[:(nn+63)/64]
	r.nv = grow(r.nv, r.words)
	for i := range r.sn {
		r.sn[i] = grow(r.sn[i], r.words)
	}
}

// errorOf returns the error of the bound graph with the set applied,
// bit-identical to cmp.ErrorFromPOs on the simulated outputs of
// lac.Apply(g, set). base must hold the bound simulation's scoring
// state.
func (r *resim) errorOf(cmp *errmetric.Comparator, base *errmetric.BaseEval, set []*lac.LAC) float64 {
	r.run(set)
	return cmp.ErrorOnWords(base, r.cw, r.pl)
}

// run resimulates the set's changes and gathers the changed output
// words into cw and pl.
func (r *resim) run(set []*lac.LAC) {
	r.ids, r.off, r.masks, r.cv = r.ids[:0], r.off[:0], r.masks[:0], r.cv[:0]
	r.set = append(r.set[:0], set...)
	slices.SortFunc(r.set, func(a, b *lac.LAC) int { return cmp.Compare(a.Target, b.Target) })
	nn := r.g.NumNodes()
	k := 0
	for scan := 0; ; {
		// The next queued node: fanouts have larger ids than the node
		// that queues them, so the scan only moves forward, and after a
		// target it resumes at the target's word.
		id := nn
		for ; scan < len(r.pending); scan++ {
			if x := r.pending[scan]; x != 0 {
				id = scan<<6 + bits.TrailingZeros64(x)
				break
			}
		}
		if k < len(r.set) && r.set[k].Target <= id {
			t := r.set[k].Target
			r.pending[t>>6] &^= 1 << (uint(t) & 63)
			r.target(r.set[k])
			k++
			scan = t >> 6
			continue
		}
		if id == nn {
			break
		}
		r.pending[id>>6] &^= 1 << (uint(id) & 63)
		r.and(id)
	}
	r.outputs()
	for _, id := range r.ids {
		r.at[id] = 0
	}
}

// target computes a target's replacement, reading each SN through the
// changes made so far, and records the words where it changed.
func (r *resim) target(l *lac.LAC) {
	used := 0
	val := func(id int) simulate.Vec {
		mask, cur := r.changedWords(id)
		if mask == nil {
			return r.vals[id]
		}
		v := r.sn[used]
		used++
		for i, wm := range mask {
			w0 := i << 6
			var src []uint64
			src, cur = r.block(r.vals[id], wm, cur, w0, &r.xa)
			copy(v[w0:], src)
		}
		return v
	}
	nv := l.NewValueAt(r.nv, r.last, val)
	base := r.vals[l.Target]
	mask := r.open(l.Target)
	for i := range mask {
		w0 := i << 6
		bv := nv[w0 : w0+r.blockWords(i)]
		bs := base[w0 : w0+len(bv)]
		var changed uint64
		for k, v := range bv {
			d := v ^ bs[k]
			changed |= (d | -d) >> 63 << uint(k)
		}
		r.store(mask, i, bv, changed)
	}
	r.close(l.Target)
}

// and recomputes an AND node on the blocks where a fanin changed and
// records the words where its value changed. Where a fanin stores the
// whole block, every word of the block is computed in one tight loop,
// reading the other fanin whole or from the base, and the words a
// partly stored fanin changed are redone after; elsewhere only the
// fanins' changed words are walked. New values are written straight
// after cv's end and then kept whole or packed to the changed words.
func (r *resim) and(id int) {
	n := r.g.NodeAt(id)
	a, b := n.Fanin0.Node(), n.Fanin1.Node()
	mask := r.open(id)
	// A fanin's mask and cursor into cv; an unchanged fanin has no mask
	// and reads the base everywhere.
	ma, ia := r.changedWords(a)
	mb, ib := r.changedWords(b)
	va, vb, base := r.vals[a], r.vals[b], r.vals[id]
	ca, cb := complMask(n.Fanin0.IsCompl()), complMask(n.Fanin1.IsCompl())
	for i := range mask {
		var wa, wb uint64
		if ma != nil {
			wa = ma[i]
		}
		if mb != nil {
			wb = mb[i]
		}
		u := wa | wb
		if u == 0 {
			continue
		}
		w0, cnt := i<<6, r.blockWords(i)
		bs := base[w0 : w0+cnt]
		cv := slices.Grow(r.cv, 64)
		out := cv[len(cv) : len(cv)+cnt]
		// Each fanin reads xs or ys, its whole stored block or the base;
		// a partly stored one (partA, partB) has its changed words at
		// its cursor instead.
		xs, ys := va[w0:w0+cnt], vb[w0:w0+cnt]
		pa, pb := bits.OnesCount64(wa), bits.OnesCount64(wb)
		partA, partB := 0 < pa && pa < denseMin, 0 < pb && pb < denseMin
		if pa >= denseMin {
			xs, ia = cv[ia:ia+cnt], ia+cnt
		}
		if pb >= denseMin {
			ys, ib = cv[ib:ib+cnt], ib+cnt
		}
		var changed uint64
		kept := cnt
		if bits.OnesCount64(u) >= denseCompute {
			if partA && partB {
				// Lay b's changed words over its base to read it whole.
				ys = r.nb[:cnt]
				copy(ys, vb[w0:w0+cnt])
				for x := wb; x != 0; x &= x - 1 {
					ys[bits.TrailingZeros64(x)] = cv[ib]
					ib++
				}
				partB = false
			}
			// Only the words from the first to the last a fanin changed
			// can change; the rest keep the base.
			lo, hi := bits.TrailingZeros64(u), 64-bits.LeadingZeros64(u)
			copy(out[:lo], bs)
			copy(out[hi:], bs[hi:])
			xr, yr, br, or := xs[lo:hi], ys[lo:hi], bs[lo:hi], out[lo:hi]
			yr, br, or = yr[:len(xr)], br[:len(xr)], or[:len(xr)]
			// Two mask halves break the loop's dependency chain.
			var odd uint64
			k := 0
			for ; k+1 < len(xr); k += 2 {
				v, w := (xr[k]^ca)&(yr[k]^cb), (xr[k+1]^ca)&(yr[k+1]^cb)
				or[k], or[k+1] = v, w
				d, e := v^br[k], w^br[k+1]
				changed |= (d | -d) >> 63 << uint(k)
				odd |= (e | -e) >> 63 << uint(k+1)
			}
			if k < len(xr) {
				v := (xr[k] ^ ca) & (yr[k] ^ cb)
				or[k] = v
				d := v ^ br[k]
				changed |= (d | -d) >> 63 << uint(k)
			}
			changed = (changed | odd) << uint(lo)
			// Redo the words of the one partly stored fanin left.
			if partA {
				for x := wa; x != 0; x &= x - 1 {
					k := bits.TrailingZeros64(x)
					out[k] = (cv[ia] ^ ca) & (ys[k] ^ cb)
					ia++
				}
				changed = recount(changed, wa, out, bs)
			}
			if partB {
				for x := wb; x != 0; x &= x - 1 {
					k := bits.TrailingZeros64(x)
					out[k] = (xs[k] ^ ca) & (cv[ib] ^ cb)
					ib++
				}
				changed = recount(changed, wb, out, bs)
			}
			if w0+cnt == r.words {
				out[cnt-1] &= r.last
				changed = recount(changed, 1<<uint(cnt-1), out, bs)
			}
			if bits.OnesCount64(changed) < denseMin {
				kept = pack(out, changed)
			}
		} else {
			// Word by word, without branches: a partly stored fanin's
			// next stored value replaces its base where it changed.
			var qa, qb uint64
			if partA {
				qa = wa
			}
			if partB {
				qb = wb
			}
			all := cv[:cap(cv)]
			kept = 0
			for x := u; x != 0; x &= x - 1 {
				k := bits.TrailingZeros64(x)
				sa, sb := -(qa >> uint(k) & 1), -(qb >> uint(k) & 1)
				xv := xs[k]&^sa | all[ia]&sa
				yv := ys[k]&^sb | all[ib]&sb
				ia, ib = ia+int(sa&1), ib+int(sb&1)
				v := (xv ^ ca) & (yv ^ cb)
				d := v ^ bs[k]
				nz := (d | -d) >> 63
				out[kept] = v
				kept += int(nz)
				changed |= nz << uint(k)
			}
			// The final pattern word is the block's last: if it was kept,
			// it is the last value kept.
			if k := cnt - 1; w0+cnt == r.words && changed>>uint(k)&1 != 0 {
				out[kept-1] &= r.last
				if out[kept-1] == bs[k] {
					kept--
					changed &^= 1 << uint(k)
				}
			}
			if bits.OnesCount64(changed) >= denseMin {
				// Store the block whole.
				nb := r.nb[:cnt]
				copy(nb, bs)
				for j, x := 0, changed; x != 0; x, j = x&(x-1), j+1 {
					nb[bits.TrailingZeros64(x)] = out[j]
				}
				kept = copy(out, nb)
			}
		}
		mask[i] = changed
		r.cv = cv[:len(cv)+kept]
	}
	r.close(id)
}

// recount returns changed with the bits of the words in redo set where
// out differs from bs, and cleared where it agrees.
func recount(changed, redo uint64, out, bs []uint64) uint64 {
	for x := redo; x != 0; x &= x - 1 {
		k := bits.TrailingZeros64(x)
		d := out[k] ^ bs[k]
		changed = changed&^(1<<uint(k)) | (d|-d)>>63<<uint(k)
	}
	return changed
}

// pack moves the words of block values v that changed marks to its
// front, in ascending order, and returns their count.
func pack(v []uint64, changed uint64) int {
	n := 0
	for ; changed != 0; changed &= changed - 1 {
		v[n] = v[bits.TrailingZeros64(changed)]
		n++
	}
	return n
}

// blockWords returns the number of pattern words in block i.
func (r *resim) blockWords(i int) int {
	return min(64, r.words-i<<6)
}

// block returns the values of a node in the block of pattern words
// from w0, where base is its base value, wm its changed-word mask in the
// block and cur the cursor into cv of its stored block. An unchanged or
// whole stored block is returned in place; the changed words of a
// partly stored one are laid over the base in buf. It also returns the
// cursor past the block.
func (r *resim) block(base []uint64, wm uint64, cur, w0 int, buf *[64]uint64) ([]uint64, int) {
	bs := base[w0 : w0+r.blockWords(w0>>6)]
	switch {
	case wm == 0:
		return bs, cur
	case bits.OnesCount64(wm) >= denseMin:
		return r.cv[cur : cur+len(bs)], cur + len(bs)
	}
	v := buf[:len(bs)]
	copy(v, bs)
	for ; wm != 0; wm &= wm - 1 {
		v[bits.TrailingZeros64(wm)] = r.cv[cur]
		cur++
	}
	return v, cur
}

// store records block i of the open node: changed is its changed-word
// mask and nb its new values, which must hold every word of the block
// when denseMin or more changed.
func (r *resim) store(mask []uint64, i int, nb []uint64, changed uint64) {
	mask[i] = changed
	if bits.OnesCount64(changed) >= denseMin {
		r.cv = append(r.cv, nb...)
		return
	}
	for ; changed != 0; changed &= changed - 1 {
		r.cv = append(r.cv, nb[bits.TrailingZeros64(changed)])
	}
}

// changedWords returns node id's changed-word mask and the position of
// its first new value in cv, or nil when the node is unchanged.
func (r *resim) changedWords(id int) ([]uint64, int) {
	k := int(r.at[id])
	if k == 0 {
		return nil, 0
	}
	return r.masks[(k-1)*r.mw : k*r.mw], int(r.off[k-1])
}

// open starts node id's entry and returns its zeroed changed-word
// mask, which close keeps only if some word changed.
func (r *resim) open(id int) []uint64 {
	r.ids = append(r.ids, int32(id))
	r.off = append(r.off, int32(len(r.cv)))
	n := len(r.masks)
	r.masks = slices.Grow(r.masks, r.mw)[:n+r.mw]
	mask := r.masks[n:]
	clear(mask)
	return mask
}

// close keeps node id's entry and queues its fanouts when some word
// changed, and drops the entry otherwise.
func (r *resim) close(id int) {
	k := len(r.ids) - 1
	if int(r.off[k]) == len(r.cv) {
		r.ids, r.off, r.masks = r.ids[:k], r.off[:k], r.masks[:k*r.mw]
		return
	}
	r.at[id] = int32(k + 1)
	for _, y := range r.fo.Of(id) {
		r.pending[y>>6] |= 1 << (uint(y) & 63)
	}
}

// outputs gathers the output words: cw lists the words on which some
// output's node changed and pl every output's value there, complemented
// and with the final-word mask applied as simulate does.
func (r *resim) outputs() {
	m := r.g.NumPOs()
	r.cwm = grow(r.cwm, r.mw)
	clear(r.cwm)
	for _, lit := range r.g.POs() {
		if mask, _ := r.changedWords(lit.Node()); mask != nil {
			for i, x := range mask {
				r.cwm[i] |= x
			}
		}
	}
	r.cw = r.cw[:0]
	for i, x := range r.cwm {
		for ; x != 0; x &= x - 1 {
			r.cw = append(r.cw, i<<6+bits.TrailingZeros64(x))
		}
	}
	r.pl = grow(r.pl, len(r.cw)*m)
	for j, lit := range r.g.POs() {
		base, c := r.vals[lit.Node()], complMask(lit.IsCompl())
		mask, cur := r.changedWords(lit.Node())
		at := j
		// cwm covers the node's mask, so its cursor walks every block it
		// stored.
		for i, x := range r.cwm {
			if x == 0 {
				continue
			}
			var wm uint64
			if mask != nil {
				wm = mask[i]
			}
			var src []uint64
			src, cur = r.block(base, wm, cur, i<<6, &r.xa)
			for ; x != 0; x &= x - 1 {
				k := bits.TrailingZeros64(x)
				v := src[k] ^ c
				if i<<6+k == r.words-1 {
					v &= r.last
				}
				r.pl[at] = v
				at += m
			}
		}
	}
}

// complMask returns the XOR mask of a complemented edge: all ones when
// set.
func complMask(c bool) uint64 {
	if c {
		return ^uint64(0)
	}
	return 0
}
