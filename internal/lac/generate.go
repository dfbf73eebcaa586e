package lac

import (
	"cmp"
	"math/bits"
	"slices"

	"accals/internal/aig"
	"accals/internal/par"
	"accals/internal/simulate"
)

// Config controls candidate LAC generation.
type Config struct {
	// MaxDivisors bounds the divisor pool collected per target node.
	MaxDivisors int
	// MaxPerTarget bounds the number of candidates kept per target,
	// ranked by simulation deviation (a cheap proxy for error).
	MaxPerTarget int
	// MinGain is the minimum estimated AIG-node saving a candidate
	// must achieve to be kept.
	MinGain int
	// EnableResub enables ALSRAC-style two-input resubstitution
	// candidates in addition to constants and wires. Off by default:
	// with the fast change-propagation estimator, resubstitution
	// candidates (whose substitute nodes correlate strongly with the
	// target) are mis-ranked often enough to cost more quality than
	// their richer function space buys, and they multiply generation
	// time by about 10 on sin and 26 on mtp8 and wal8 (the inputs of
	// BenchmarkGenerate: 8192 patterns, workers 1). See the resub
	// ablation benchmark.
	EnableResub bool
	// WindowDepth bounds the TFI depth explored when collecting
	// divisors.
	WindowDepth int
	// GlobalWires adds up to this many SASIMI-style wire candidates
	// per target found by global signature matching (signals anywhere
	// earlier in the circuit whose simulated values nearly coincide
	// with the target's, in either phase). 0 uses the default; set
	// GlobalWiresOff (or any negative value) to disable.
	GlobalWires int
	// EnableResub3 adds three-input resubstitution candidates (MUX
	// and majority over divisor triples), a restricted form of
	// ALSRAC's k-input resubstitution. Opt-in, for the same reason as
	// EnableResub (and the enumeration is cubic in the divisor count).
	EnableResub3 bool
	// Resub3Divisors bounds the divisor subset used for triples
	// (defaults to 8; the cubic enumeration is the cost driver).
	Resub3Divisors int
	// Workers bounds the goroutines sharding per-target generation.
	// 0 (and any value ≤ 0) uses all available CPUs; 1 forces the
	// sequential path. The output is identical for every worker count.
	Workers int
}

// GlobalWiresOff disables global signature-matched wire candidates.
// Zero cannot mean "off": the zero value of Config has always meant
// "use the defaults", so a caller zeroing GlobalWires silently got the
// default quota back. Callers that want the feature off must pass this
// sentinel (any negative value works; this constant is the readable
// spelling).
const GlobalWiresOff = -1

// DefaultConfig returns the generation parameters used by the
// experiments, scaled by circuit size like the paper's r_ref/r_sel.
func DefaultConfig(numAnds int) Config {
	cfg := Config{
		MaxDivisors:    12,
		MaxPerTarget:   6,
		MinGain:        1,
		EnableResub:    false, // see the field comment and the resub ablation
		WindowDepth:    4,
		GlobalWires:    4,
		EnableResub3:   false, // opt-in: cubic enumeration; see Config.EnableResub3
		Resub3Divisors: 8,
	}
	if numAnds >= 5000 {
		cfg.MaxDivisors = 8
		cfg.MaxPerTarget = 4
	}
	return cfg
}

// AIG-node costs of the three-input replacement functions (MUX is
// two ANDs plus an OR; MAJ is three ANDs plus two ORs).
const (
	muxCost = 3
	majCost = 5
)

// xorCost is the AIG-node cost of realising a two-input XOR.
const xorCost = 3

// Generate enumerates candidate LACs for every AND node of g under the
// simulated values res. Candidates keep the graph acyclic by
// construction: every SN id is strictly smaller than its target id.
// The returned slice is deterministic for a fixed graph and pattern
// set, ordered by target id and then by deviation.
func Generate(g *aig.Graph, res *simulate.Result, cfg Config) []*LAC {
	cfg = resolve(cfg, g.NumAnds())
	refs := g.RefCounts()
	var sigs *signatureIndex
	if cfg.GlobalWires > 0 {
		sigs = buildSignatureIndex(g, res)
	}
	return slices.Concat(generateTargets(g, res, cfg, liveTargets(g, refs), refs, sigs)...)
}

// resolve normalises a Config into its effective form: the zero value
// becomes the full defaults, unset numeric fields are filled in, and
// GlobalWires folds onto a canonical encoding (0 means "default quota",
// any negative sentinel becomes 0 meaning "off"). Resolved configs are
// comparable: two configs request the same generation iff their
// resolved forms are equal with Workers ignored, which is what the
// incremental Generator's cache key relies on.
func resolve(cfg Config, numAnds int) Config {
	workers := cfg.Workers
	cfg.Workers = 0
	// A zero-valued config means "use the full defaults" (including
	// the resubstitution switches); a partially-set config keeps its
	// boolean choices and only has numeric fields filled in.
	if cfg == (Config{}) {
		cfg = DefaultConfig(numAnds)
	}
	def := DefaultConfig(numAnds)
	if cfg.MaxDivisors <= 0 {
		cfg.MaxDivisors = def.MaxDivisors
	}
	if cfg.MaxPerTarget <= 0 {
		cfg.MaxPerTarget = def.MaxPerTarget
	}
	if cfg.WindowDepth <= 0 {
		cfg.WindowDepth = def.WindowDepth
	}
	switch {
	case cfg.GlobalWires == 0:
		cfg.GlobalWires = def.GlobalWires
	case cfg.GlobalWires < 0:
		cfg.GlobalWires = 0
	}
	if cfg.Resub3Divisors <= 0 {
		cfg.Resub3Divisors = def.Resub3Divisors
	}
	if cfg.MinGain <= 0 {
		cfg.MinGain = def.MinGain
	}
	cfg.Workers = workers
	return cfg
}

// liveTargets lists the AND nodes eligible as LAC targets (referenced
// by at least one fanin or PO), in ascending id order.
func liveTargets(g *aig.Graph, refs []int) []int {
	ts := make([]int, 0, g.NumAnds())
	for id := 0; id < g.NumNodes(); id++ {
		if g.IsAnd(id) && refs[id] > 0 {
			ts = append(ts, id)
		}
	}
	return ts
}

// generateTargets produces the candidate list of each requested target,
// sharding the targets across cfg.Workers goroutines. Entry i holds the
// candidates of targets[i] and is never nil, so callers can distinguish
// "generated, empty" from "not generated". The result is identical for
// every worker count: shards only partition the target list, and each
// target's generation is independent.
func generateTargets(g *aig.Graph, res *simulate.Result, cfg Config, targets []int, refs []int, sigs *signatureIndex) [][]*LAC {
	out := make([][]*LAC, len(targets))
	workers := par.Resolve(cfg.Workers)
	// Each shard owns graph-sized scratch (and, when sharded, a private
	// copy of refs, which MFFC marking mutates and restores), so a
	// shard must amortize it over at least a handful of targets.
	blocks := par.BlocksMin(workers, len(targets), 8)
	par.For(blocks, len(targets), func(shard, begin, end int) {
		r := refs
		if blocks > 1 {
			r = slices.Clone(refs)
		}
		s := newScratch(g, res, cfg, r, sigs, end-begin)
		for i := begin; i < end; i++ {
			out[i] = s.generate(targets[i])
		}
	})
	return out
}

// signatureIndex holds every non-constant node keyed by the first
// simulation word of its value, sorted by (word, id), enabling global
// SASIMI-style candidate lookup: signals whose values agree with a
// target on the first 64 patterns are promising substitution sources
// in the positive phase, and entries under the complemented word serve
// the negative phase. The entries sharing a word form that word's
// bucket, in ascending id order.
type signatureIndex struct {
	entries []sigEntry
}

type sigEntry struct {
	word uint64
	id   int
}

func cmpSigEntry(a, b sigEntry) int {
	if c := cmp.Compare(a.word, b.word); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

func buildSignatureIndex(g *aig.Graph, res *simulate.Result) *signatureIndex {
	entries := make([]sigEntry, 0, g.NumNodes())
	for id := 1; id < g.NumNodes(); id++ {
		if g.NodeAt(id).Kind == aig.KindConst {
			continue
		}
		entries = append(entries, sigEntry{res.NodeVals[id][0], id})
	}
	slices.SortFunc(entries, cmpSigEntry)
	return &signatureIndex{entries: entries}
}

// maxBucketScan bounds how many bucket members are examined per
// lookup (buckets of near-constant signals can be large).
const maxBucketScan = 32

// candidatesFor appends to out up to 2·limit global wire candidates for
// the target: bucket members before the target in topological order,
// in matching or complemented phase.
func (idx *signatureIndex) candidatesFor(out []wireCand, res *simulate.Result, target int, limit int) []wireCand {
	val := res.NodeVals[target]
	mask := ^uint64(0)
	if res.Patterns.Words() == 1 {
		mask = res.Patterns.LastMask()
	}
	// Prefer the closest preceding nodes: walk backwards from the
	// insertion point of target in the word's bucket.
	scan := func(word uint64, compl bool) {
		lo, _ := slices.BinarySearchFunc(idx.entries, sigEntry{word, target}, cmpSigEntry)
		for k := lo - 1; k >= 0 && idx.entries[k].word == word && lo-k <= maxBucketScan && len(out) < limit*2; k-- {
			out = append(out, wireCand{node: idx.entries[k].id, compl: compl})
		}
	}
	scan(val[0], false)
	scan(^val[0]&mask, true)
	return out
}

type wireCand struct {
	node  int
	compl bool
}

// candidate is one LAC under construction during per-target ranking,
// held by value in the shard's scratch until it is kept.
type candidate struct {
	fn   Fn
	nsn  int
	sns  [3]int
	gain int
	dev  int
}

func isResub(k FnKind) bool {
	switch k {
	case FnAnd, FnXor, FnMux, FnMaj:
		return true
	}
	return false
}

// scratch is one shard's generation state. Its buffers are reused from
// target to target, so after warm-up the per-target path allocates
// nothing: the divisor BFS marks nodes with epoch stamps, candidates
// are values ranked through an index permutation, and only the kept
// LACs are written out, into slabs sized for the shard's worst case
// (MaxPerTarget LACs per target, each with as many SNs as the widest
// enabled replacement takes).
type scratch struct {
	g    *aig.Graph
	res  *simulate.Result
	cfg  Config
	sigs *signatureIndex
	npat int
	mask uint64 // the pattern set's final-word validity mask

	mffc  *aig.MFFC
	seen  []uint32 // seen[x] == epoch: the divisor BFS reached x
	epoch uint32
	queue []divEntry
	divs  []int
	wires []wireCand
	cands []candidate
	order []int32

	lacs []LAC
	sns  []int
	ptrs []*LAC
}

type divEntry struct {
	node, depth int
}

func newScratch(g *aig.Graph, res *simulate.Result, cfg Config, refs []int, sigs *signatureIndex, targets int) *scratch {
	maxSNs := 1
	if cfg.EnableResub {
		maxSNs = 2
	}
	if cfg.EnableResub3 {
		maxSNs = 3
	}
	kept := targets * cfg.MaxPerTarget
	return &scratch{
		g:    g,
		res:  res,
		cfg:  cfg,
		sigs: sigs,
		npat: res.Patterns.NumPatterns(),
		mask: res.Patterns.LastMask(),
		mffc: g.NewMFFC(refs),
		seen: make([]uint32, g.NumNodes()),
		lacs: make([]LAC, 0, kept),
		sns:  make([]int, 0, kept*maxSNs),
		ptrs: make([]*LAC, 0, kept),
	}
}

// add appends c with deviation dev to the target's candidates unless
// its gain is below MinGain, or it is a zero-deviation resubstitution
// that just rebuilds the target's existing structure (such no-ops would
// poison the ranking with optimistic gains).
func (s *scratch) add(id int, c candidate, dev int) {
	if c.gain < s.cfg.MinGain {
		return
	}
	if dev == 0 && isResub(c.fn.Kind) && isNoop(s.g, id, c.sns[:c.nsn], c.fn) {
		return
	}
	c.dev = dev
	s.cands = append(s.cands, c)
}

// generate builds and ranks the candidates for one target and returns
// the kept ones. Gains of wire and resubstitution candidates account
// for the part of the target's MFFC that feeds their substitute nodes
// (that part survives the replacement).
func (s *scratch) generate(id int) []*LAC {
	g, res, cfg, npat := s.g, s.res, s.cfg, s.npat
	val := res.NodeVals[id]
	ones := simulate.PopCount(val)
	mffc := s.mffc.Mark(id)
	s.cands = s.cands[:0]

	// Constant LACs.
	s.add(id, candidate{fn: Fn{Kind: FnConst0}, gain: mffc}, ones)
	s.add(id, candidate{fn: Fn{Kind: FnConst1}, gain: mffc}, npat-ones)

	divs := s.collectDivisors(id)

	// Wire (SASIMI) LACs: keep the better phase per divisor.
	for _, d := range divs {
		dist := xorPopCount(val, res.NodeVals[d], s.mask)
		c := candidate{fn: Fn{Kind: FnWire}, nsn: 1, sns: [3]int{d}}
		c.gain = mffc - s.mffc.Kept(c.sns[:1])
		if dist <= npat-dist {
			s.add(id, c, dist)
		} else {
			c.fn.C0 = true
			s.add(id, c, npat-dist)
		}
	}

	// Global SASIMI wires from signature matching.
	if s.sigs != nil && cfg.GlobalWires > 0 {
		n := g.NodeAt(id)
		f0, f1 := n.Fanin0.Node(), n.Fanin1.Node()
		kept := 0
		s.wires = s.sigs.candidatesFor(s.wires[:0], res, id, cfg.GlobalWires)
		for _, wc := range s.wires {
			if kept >= cfg.GlobalWires {
				break
			}
			if wc.node == f0 || wc.node == f1 || slices.Contains(divs, wc.node) {
				continue
			}
			dist := xorPopCount(val, res.NodeVals[wc.node], s.mask)
			if wc.compl {
				dist = npat - dist
			}
			c := candidate{fn: Fn{Kind: FnWire, C0: wc.compl}, nsn: 1, sns: [3]int{wc.node}}
			c.gain = mffc - s.mffc.Kept(c.sns[:1])
			s.add(id, c, dist)
			kept++
		}
	}

	// Resubstitution (ALSRAC) LACs over divisor pairs.
	if cfg.EnableResub && mffc > 1 {
		for i := 0; i < len(divs); i++ {
			for j := i + 1; j < len(divs); j++ {
				c := candidate{nsn: 2, sns: [3]int{divs[i], divs[j]}}
				var dev int
				c.fn, dev = bestPairFn(val, res.NodeVals[divs[i]], res.NodeVals[divs[j]], s.mask, npat)
				freed := mffc - s.mffc.Kept(c.sns[:2])
				c.gain = freed - 1
				if c.fn.Kind == FnXor {
					c.gain = freed - xorCost
				}
				s.add(id, c, dev)
			}
		}
	}

	// Three-input resubstitution over a reduced divisor subset.
	if cfg.EnableResub3 && mffc > muxCost {
		d3 := divs[:min(len(divs), cfg.Resub3Divisors)]
		vals := res.NodeVals
		for i := 0; i < len(d3); i++ {
			for j := i + 1; j < len(d3); j++ {
				for k := j + 1; k < len(d3); k++ {
					c := candidate{nsn: 3, sns: [3]int{d3[i], d3[j], d3[k]}}
					var dev int
					c.fn, dev = bestTripleFn(val, vals[d3[i]], vals[d3[j]], vals[d3[k]], s.mask, npat)
					cost := muxCost
					if c.fn.Kind == FnMaj {
						cost = majCost
					}
					c.gain = mffc - s.mffc.Kept(c.sns[:3]) - cost
					s.add(id, c, dev)
				}
			}
		}
	}
	return s.keep(id)
}

// keep ranks the target's candidates by deviation ascending, then gain
// descending, earlier candidates first on ties, and writes the best
// MaxPerTarget of them out as LACs. Resubstitutions are capped at half
// the slots: their deviations are often minimal (they can imitate the
// target closely) while their area gains are smaller than wire/constant
// changes, so unchecked they crowd out the candidates with the better
// error-per-area trade. The returned list is never nil.
func (s *scratch) keep(id int) []*LAC {
	s.order = s.order[:0]
	for i := range s.cands {
		s.order = append(s.order, int32(i))
	}
	// Sorting indices rather than the candidates themselves keeps each
	// swap to one word.
	slices.SortStableFunc(s.order, func(a, b int32) int {
		ca, cb := &s.cands[a], &s.cands[b]
		if c := cmp.Compare(ca.dev, cb.dev); c != 0 {
			return c
		}
		return cmp.Compare(cb.gain, ca.gain)
	})
	resubQuota := max(s.cfg.MaxPerTarget/2, 1)
	start := len(s.ptrs)
	resubs := 0
	for _, i := range s.order {
		if len(s.ptrs)-start == s.cfg.MaxPerTarget {
			break
		}
		c := &s.cands[i]
		if isResub(c.fn.Kind) {
			if resubs == resubQuota {
				continue
			}
			resubs++
		}
		l := LAC{Target: id, Fn: c.fn, Gain: c.gain}
		if c.nsn > 0 {
			off := len(s.sns)
			s.sns = append(s.sns, c.sns[:c.nsn]...)
			// Capped so that no append through l.SNs can reach the
			// next LAC's SNs.
			l.SNs = s.sns[off:len(s.sns):len(s.sns)]
		}
		s.lacs = append(s.lacs, l)
		s.ptrs = append(s.ptrs, &s.lacs[len(s.lacs)-1])
	}
	// s.ptrs is never nil, so neither is an empty list cut from it.
	return s.ptrs[start:len(s.ptrs):len(s.ptrs)]
}

// collectDivisors gathers candidate substitute nodes for target id:
// the nodes in a bounded-depth TFI window, restricted to ids strictly
// below the target (which both excludes the target's transitive fanout
// and preserves topological order under simultaneous substitution).
// The result, in ascending id order, lives in the scratch until the
// next call.
func (s *scratch) collectDivisors(id int) []int {
	g, cfg := s.g, s.cfg
	s.epoch++
	if s.epoch == 0 {
		clear(s.seen)
		s.epoch = 1
	}
	n := g.NodeAt(id)
	s.seen[id] = s.epoch
	window := s.divs[:0]
	queue := append(s.queue[:0], divEntry{n.Fanin0.Node(), 1}, divEntry{n.Fanin1.Node(), 1})
	for head := 0; head < len(queue); head++ {
		e := queue[head]
		if s.seen[e.node] == s.epoch || e.node == 0 {
			s.seen[e.node] = s.epoch
			continue
		}
		s.seen[e.node] = s.epoch
		window = append(window, e.node)
		if len(window) >= cfg.MaxDivisors*2 {
			break
		}
		nd := g.NodeAt(e.node)
		if nd.Kind == aig.KindAnd && e.depth < cfg.WindowDepth {
			queue = append(queue, divEntry{nd.Fanin0.Node(), e.depth + 1}, divEntry{nd.Fanin1.Node(), e.depth + 1})
		}
	}
	s.queue = queue
	s.divs = window
	// Exclude the target's direct fanins: a wire LAC to a fanin is
	// usually either trivial or equivalent to a constant via the other
	// input, and resub pairs among remaining divisors stay meaningful.
	f0, f1 := n.Fanin0.Node(), n.Fanin1.Node()
	divs := window[:0]
	for _, d := range window {
		if d != f0 && d != f1 && d < id {
			divs = append(divs, d)
		}
	}
	slices.Sort(divs)
	return divs[:min(len(divs), cfg.MaxDivisors)]
}

// bestPairFn evaluates the ten distinct two-input functions of (a, b)
// and returns the one whose value deviates least from target.
func bestPairFn(target, a, b simulate.Vec, lastMask uint64, npat int) (Fn, int) {
	fns := [...]Fn{
		{Kind: FnAnd},
		{Kind: FnAnd, C0: true},
		{Kind: FnAnd, C1: true},
		{Kind: FnAnd, C0: true, C1: true},
		{Kind: FnAnd, OutC: true},
		{Kind: FnAnd, C0: true, OutC: true},
		{Kind: FnAnd, C1: true, OutC: true},
		{Kind: FnAnd, C0: true, C1: true, OutC: true},
		{Kind: FnXor},
		{Kind: FnXor, OutC: true},
	}
	best := fns[0]
	bestDev := npat + 1
	last := len(target) - 1
	for _, f := range fns {
		dev := 0
		for w := range target {
			d := fnEval(f, a[w], b[w]) ^ target[w]
			if w == last {
				d &= lastMask
			}
			dev += bits.OnesCount64(d)
			if dev >= bestDev {
				break
			}
		}
		if dev < bestDev {
			bestDev = dev
			best = f
		}
	}
	return best, bestDev
}

// tripleFns lists the three-input function variants evaluated per
// divisor triple: MUX with each operand as the select (branch swaps
// are covered by complementing the select) plus branch-phase and
// output-phase variants, and majority with output phase.
var tripleFns = func() []Fn {
	var fns []Fn
	for _, base := range []Fn{
		{Kind: FnMux},
		{Kind: FnMux, C0: true},
	} {
		for _, c1 := range []bool{false, true} {
			for _, c2 := range []bool{false, true} {
				f := base
				f.C1, f.C2 = c1, c2
				fns = append(fns, f)
			}
		}
	}
	fns = append(fns, Fn{Kind: FnMaj}, Fn{Kind: FnMaj, OutC: true})
	return fns
}()

// bestTripleFn evaluates the ternary function variants of (a, b, c)
// and returns the one whose value deviates least from target.
func bestTripleFn(target, a, b, c simulate.Vec, lastMask uint64, npat int) (Fn, int) {
	best := tripleFns[0]
	bestDev := npat + 1
	last := len(target) - 1
	for _, f := range tripleFns {
		dev := 0
		for w := range target {
			d := fnEval3(f, a[w], b[w], c[w]) ^ target[w]
			if w == last {
				d &= lastMask
			}
			dev += bits.OnesCount64(d)
			if dev >= bestDev {
				break
			}
		}
		if dev < bestDev {
			bestDev = dev
			best = f
		}
	}
	return best, bestDev
}

// isNoop reports whether replacing target by fn over sns would rebuild
// the target's existing structure: the replacement function, probed
// against the graph's structural hash, resolves to the target node
// itself. Such candidates carry an optimistic gain estimate but change
// nothing.
func isNoop(g *aig.Graph, target int, sns []int, fn Fn) bool {
	probe := func(a, b aig.Lit) (aig.Lit, bool) { return g.ProbeAnd(a, b) }
	probeOr := func(a, b aig.Lit) (aig.Lit, bool) {
		v, ok := probe(a.Not(), b.Not())
		return v.Not(), ok
	}
	sn := func(i int, c bool) aig.Lit { return aig.MakeLit(sns[i], false).NotIf(c) }

	var out aig.Lit
	switch fn.Kind {
	case FnAnd:
		v, ok := probe(sn(0, fn.C0), sn(1, fn.C1))
		if !ok {
			return false
		}
		out = v
	case FnXor:
		t1, ok1 := probe(sn(0, fn.C0), sn(1, fn.C1).Not())
		t2, ok2 := probe(sn(0, fn.C0).Not(), sn(1, fn.C1))
		if !ok1 || !ok2 {
			return false
		}
		v, ok := probeOr(t1, t2)
		if !ok {
			return false
		}
		out = v
	case FnMux:
		s, t, e := sn(0, fn.C0), sn(1, fn.C1), sn(2, fn.C2)
		t1, ok1 := probe(s, t)
		t2, ok2 := probe(s.Not(), e)
		if !ok1 || !ok2 {
			return false
		}
		v, ok := probeOr(t1, t2)
		if !ok {
			return false
		}
		out = v
	case FnMaj:
		a, b, c := sn(0, fn.C0), sn(1, fn.C1), sn(2, fn.C2)
		ab, ok1 := probe(a, b)
		ac, ok2 := probe(a, c)
		bc, ok3 := probe(b, c)
		if !ok1 || !ok2 || !ok3 {
			return false
		}
		inner, ok := probeOr(ac, bc)
		if !ok {
			return false
		}
		v, ok := probeOr(ab, inner)
		if !ok {
			return false
		}
		out = v
	default:
		return false
	}
	return out.NotIf(fn.OutC) == aig.MakeLit(target, false)
}

// xorPopCount returns the Hamming distance between two vectors, with
// the final word masked by lastMask.
func xorPopCount(a, b simulate.Vec, lastMask uint64) int {
	last := len(a) - 1
	c := bits.OnesCount64((a[last] ^ b[last]) & lastMask)
	b = b[:last]
	for w := range b {
		c += bits.OnesCount64(a[w] ^ b[w])
	}
	return c
}
