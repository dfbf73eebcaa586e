package lac

import (
	"accals/internal/aig"
	"accals/internal/bitset"
	"accals/internal/obs"
	"accals/internal/simulate"
)

// Generator is the incremental candidate generator of the round engine.
// Across consecutive rounds of a synthesis flow the circuit changes
// only locally — one Apply substitutes a handful of targets — while
// Generate rebuilds every per-target candidate list from scratch. The
// Generator instead computes the *dirty cone* of the last Apply (the
// new-graph targets whose candidate generation could observe any
// difference from the previous round) and reuses the cached lists of
// every clean target, translating node ids through the rebuild map.
//
// The contract is bit-identity: for every target the returned
// candidates are exactly what package-level Generate would produce on
// the new graph, in the same order. The dirty cone is therefore an
// over-approximation of the affected targets, assembled from the
// classification in aig.Delta:
//
//   - targets with no pure preimage are regenerated (fresh or disturbed
//     logic);
//   - targets within WindowDepth fanout steps of a node whose simulated
//     values actually changed are regenerated: deviations read the
//     target's own vector (distance 0) and its window divisors' vectors
//     (window divisors sit within WindowDepth of the target's TFI).
//     Value changes are detected exactly, by comparing full vectors
//     against the previous round's snapshot — logical masking leaves
//     most of the structural TFO value-identical, and those targets
//     stay clean;
//   - targets within WindowDepth fanout steps of a disturbed old node
//     (or a fresh new node) can collect a different divisor window; the
//     seeds grow by a 3-level TFI halo when resubstitution is enabled,
//     because the structural-hash no-op probe inspects AND chains up to
//     three levels above the window divisors;
//   - targets whose transitive fanin contains a node with a changed
//     reference count (or a fresh node) can compute different MFFC
//     gains;
//   - when global signature matching is on, targets whose first value
//     word — in either phase — keys a bucket that gained or lost a
//     member (or holds a member whose values changed) can see a
//     different global candidate scan.
//
// Everything outside those sets provably generates the identical list,
// because per-target generation (scratch.generate) only reads the
// target's depth-bounded TFI window (values, structure, reference
// counts), the structural hash within three levels of the window, and
// the value-keyed signature buckets.
type Generator struct {
	workers int

	// Cache of the previous round, in that round's node-id space.
	prevG    *aig.Graph
	prevKey  Config     // resolved config with Workers zeroed
	prevVals [][]uint64 // simulation vectors per node (owned copies)
	prevRefs []int      // reference counts
	cands    [][]*LAC   // per-target candidate lists; nil = not generated

	// Pending rebase from NoteApply, consumed by the next Generate.
	delta   *aig.Delta
	applied []*LAC
}

// NewGenerator returns an empty Generator. workers bounds the
// goroutines sharding regeneration (≤0 uses all CPUs); a Config passed
// to Generate with a non-zero Workers field takes precedence.
func NewGenerator(workers int) *Generator {
	return &Generator{workers: workers}
}

// NoteApply records the rebuild that produced the graph the next
// Generate call will see: delta relates the previous round's graph to
// the new one, applied lists the LACs of that Apply. Callers must note
// the rebuild that actually produced the next round's graph — when a
// round applies a set and then reverts to a single LAC, only the final
// rebuild is noted. Calling Generate on any other graph, or with a
// different effective config, falls back to full generation.
func (gen *Generator) NoteApply(delta *aig.Delta, applied []*LAC) {
	gen.delta = delta
	gen.applied = append([]*LAC(nil), applied...)
}

// Generate returns the candidate LACs of g exactly as package-level
// Generate would, serving clean targets from the previous round's cache
// when NoteApply connected the two graphs. rec (nil-safe) receives the
// dirty-cone span and the cache hit/miss tallies.
func (gen *Generator) Generate(g *aig.Graph, res *simulate.Result, cfg Config, rec *obs.Recorder) []*LAC {
	eff := resolve(cfg, g.NumAnds())
	if eff.Workers == 0 {
		eff.Workers = gen.workers
	}
	key := eff
	key.Workers = 0

	refs := g.RefCounts()
	targets := liveTargets(g, refs)

	reusable := gen.delta != nil && gen.prevG != nil &&
		gen.prevG == gen.delta.Old && gen.delta.New == g && key == gen.prevKey
	if !reusable {
		perID := gen.generateInto(g, res, eff, refs, targets, make([][]*LAC, g.NumNodes()))
		rec.CountLACCache(0, len(targets))
		gen.store(g, key, res, refs, perID)
		return flatten(targets, perID)
	}

	span := rec.StartSpan(obs.PhaseDirtyCone)
	dirty := gen.dirtySet(g, res, eff, refs)
	span.End()

	perID := make([][]*LAC, g.NumNodes())
	var regen []int
	for _, t := range targets {
		if dirty.Has(t) {
			regen = append(regen, t)
			continue
		}
		if remapped, ok := gen.remap(t); ok {
			perID[t] = remapped
			continue
		}
		// Defensive: a clean target whose cached list cannot be
		// translated (missing entry or impure SN) is regenerated. The
		// dirty-cone criteria make this unreachable, but correctness
		// must not hang on that argument alone.
		regen = append(regen, t)
	}
	hits := len(targets) - len(regen)
	gen.generateInto(g, res, eff, refs, regen, perID)
	rec.CountLACCache(hits, len(regen))
	gen.store(g, key, res, refs, perID)
	return flatten(targets, perID)
}

// generateInto regenerates the given targets into perID and returns it.
func (gen *Generator) generateInto(g *aig.Graph, res *simulate.Result, eff Config, refs []int, targets []int, perID [][]*LAC) [][]*LAC {
	if len(targets) == 0 {
		return perID
	}
	var sigs *signatureIndex
	if eff.GlobalWires > 0 {
		sigs = buildSignatureIndex(g, res)
	}
	per := generateTargets(g, res, eff, targets, refs, sigs)
	for i, t := range targets {
		perID[t] = per[i]
	}
	return perID
}

// remap translates target t's cached candidate list from the previous
// round's id space through the rebuild map. All SNs of a clean target
// are pure (window SNs sit inside the undisturbed ball, global SNs are
// guarded by the signature word set), so the translation is a node-id
// substitution; Gain and deviation-determined orderings carry over
// unchanged, and DeltaE is re-estimated every round regardless.
func (gen *Generator) remap(t int) ([]*LAC, bool) {
	p := gen.delta.Rev[t]
	if p < 0 || gen.cands[p] == nil {
		return nil, false
	}
	cached := gen.cands[p]
	out := make([]*LAC, len(cached))
	for i, l := range cached {
		nl := &LAC{Target: t, Fn: l.Fn, Gain: l.Gain, DeltaE: l.DeltaE}
		if len(l.SNs) > 0 {
			nl.SNs = make([]int, len(l.SNs))
			for j, sn := range l.SNs {
				if !gen.delta.Pure(sn) {
					return nil, false
				}
				nl.SNs[j] = gen.delta.M[sn].Node()
			}
		}
		out[i] = nl
	}
	return out, true
}

// dirtySet computes the dirty cone in new-graph node ids: the targets
// that must be regenerated because their candidate generation could
// observe any effect of the last Apply. Everything outside the set is
// guaranteed to generate the identical candidate list (see the type
// comment for the case analysis).
func (gen *Generator) dirtySet(g *aig.Graph, res *simulate.Result, eff Config, refs []int) *bitset.Set {
	d := gen.delta
	old := d.Old
	oldFo := old.Fanouts()
	newFo := g.Fanouts()
	resubOn := eff.EnableResub || eff.EnableResub3

	// Old nodes whose simulation values actually changed. Values can
	// only move inside the structural TFO of the applied targets (pure
	// nodes outside it keep their function), so only those preimages
	// need their vectors compared against the snapshot; logical masking
	// typically leaves most of the TFO value-identical. Disturbed nodes
	// (no surviving image) count as changed. A target is value-dirty if
	// a changed node sits within WindowDepth of it: its own vector is
	// distance 0, and every window divisor it reads deviations from is
	// within WindowDepth of its TFI.
	vdOld := old.TFOSet(Targets(gen.applied), oldFo)
	valueChanged := bitset.New(old.NumNodes())
	vdOld.ForEach(func(x int) {
		if d.BadOld.Has(x) {
			valueChanged.Add(x)
			return
		}
		if !sameVals(gen.prevVals[x], res.NodeVals[d.M[x].Node()]) {
			valueChanged.Add(x)
		}
	})
	d.BadOld.ForEach(func(x int) { valueChanged.Add(x) })
	ballVC := old.FanoutBall(valueChanged, oldFo, eff.WindowDepth)

	// Targets whose divisor window can contain a disturbed old node.
	// With resubstitution on, the no-op probe reaches AND chains up to
	// three levels above window divisors, so the seeds grow by the
	// 3-level backward halo: a disturbed node within three fanin levels
	// of a divisor can flip a structural-hash probe.
	seedsOld := d.BadOld
	if resubOn {
		seedsOld = old.TFIWithin(seedsOld, 3)
	}
	ballOld := old.FanoutBall(seedsOld, oldFo, eff.WindowDepth)

	// Same on the new side, seeded by the fresh nodes.
	seedsNew := d.FreshSet()
	if resubOn {
		seedsNew = g.TFIWithin(seedsNew, 3)
	}
	ballNew := g.FanoutBall(seedsNew, newFo, eff.WindowDepth)

	// Targets whose TFI contains a node with a changed reference count
	// (or a fresh node): their MFFC-based gains can differ. Forward
	// closure from the changed nodes reaches exactly the targets whose
	// fanin cone contains one.
	var refSeeds []int
	refSeeds = append(refSeeds, d.FreshNew...)
	for y := 1; y < g.NumNodes(); y++ {
		if p := d.Rev[y]; p >= 0 && refs[y] != gen.prevRefs[p] {
			refSeeds = append(refSeeds, y)
		}
	}
	dirtyRefs := g.TFOSet(refSeeds, newFo)

	// Signature-bucket disturbance: first value words (either phase)
	// of nodes that left a bucket (disturbed or value-changed old
	// nodes) or joined one (fresh nodes, value-changed survivors).
	// A clean target's scan of an untouched bucket pair sees the same
	// members in the same relative order, so only these keys matter.
	var wset map[uint64]bool
	if eff.GlobalWires > 0 {
		mask := ^uint64(0)
		if res.Patterns.Words() == 1 {
			mask = res.Patterns.LastMask()
		}
		wset = make(map[uint64]bool)
		addW := func(v uint64) {
			wset[v] = true
			wset[^v&mask] = true
		}
		valueChanged.ForEach(func(x int) {
			addW(gen.prevVals[x][0])
			if !d.BadOld.Has(x) {
				addW(res.NodeVals[d.M[x].Node()][0])
			}
		})
		for _, y := range d.FreshNew {
			addW(res.NodeVals[y][0])
		}
	}

	dirty := bitset.New(g.NumNodes())
	for t := 1; t < g.NumNodes(); t++ {
		if !g.IsAnd(t) {
			continue
		}
		p := d.Rev[t]
		if p < 0 || ballVC.Has(p) || ballOld.Has(p) || ballNew.Has(t) || dirtyRefs.Has(t) {
			dirty.Add(t)
			continue
		}
		if wset != nil && wset[res.NodeVals[t][0]] {
			dirty.Add(t)
		}
	}
	return dirty
}

// sameVals reports whether two simulation vectors are identical.
func sameVals(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// store snapshots this round's outputs as the next round's cache. The
// value vectors are copied: simulation results are pooled and their
// buffers are recycled after each round.
func (gen *Generator) store(g *aig.Graph, key Config, res *simulate.Result, refs []int, perID [][]*LAC) {
	words := res.Patterns.Words()
	flat := make([]uint64, g.NumNodes()*words)
	vals := make([][]uint64, g.NumNodes())
	for id := range vals {
		row := flat[id*words : (id+1)*words]
		copy(row, res.NodeVals[id])
		vals[id] = row
	}
	gen.prevG = g
	gen.prevKey = key
	gen.prevVals = vals
	gen.prevRefs = refs
	gen.cands = perID
	gen.delta = nil
	gen.applied = nil
}

// flatten concatenates per-target lists in ascending target order,
// matching package-level Generate's output order.
func flatten(targets []int, perID [][]*LAC) []*LAC {
	total := 0
	for _, t := range targets {
		total += len(perID[t])
	}
	if total == 0 {
		return nil
	}
	out := make([]*LAC, 0, total)
	for _, t := range targets {
		out = append(out, perID[t]...)
	}
	return out
}
