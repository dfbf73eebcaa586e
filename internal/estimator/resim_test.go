package estimator

import (
	"fmt"
	"math"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// allKinds lists the five metrics.
var allKinds = []errmetric.Kind{errmetric.ER, errmetric.MHD, errmetric.NMED, errmetric.MRED, errmetric.MaxED}

// appliedPOs simulates lac.Apply(g, set) under p and returns its
// outputs: the reference every resimulation must match.
func appliedPOs(g *aig.Graph, p *simulate.Patterns, set []*lac.LAC) []simulate.Vec {
	ng := lac.Apply(g, set)
	return simulate.MustRun(ng, p).POValues(ng)
}

// conflictFree reports whether l can join set: its target is no target
// or SN of the set, and none of its SNs is a target of the set.
func conflictFree(set []*lac.LAC, l *lac.LAC) bool {
	for _, o := range set {
		if o.Target == l.Target {
			return false
		}
		for _, sn := range o.SNs {
			if sn == l.Target {
				return false
			}
		}
		for _, sn := range l.SNs {
			if sn == o.Target {
				return false
			}
		}
	}
	return true
}

// coneLAC builds a LAC whose first SN lies in the transitive fanout
// cone of set[0]'s target, so its replacement must read that SN's
// overlaid value: a wire, AND, XOR, MUX or majority picked by fn, with
// complement flags from its bits and the other SNs below the new
// target. It returns nil when the cone leaves no room.
func coneLAC(g *aig.Graph, set []*lac.LAC, fn uint8) *lac.LAC {
	if len(set) == 0 {
		return nil
	}
	cone := g.TFO(set[0].Target, g.Fanouts())
	for x := set[0].Target + 1; x < g.NumNodes(); x++ {
		if !cone.Has(x) || !g.IsAnd(x) {
			continue
		}
		for t := g.NumNodes() - 1; t > x; t-- {
			if !g.IsAnd(t) {
				continue
			}
			kinds := []lac.FnKind{lac.FnWire, lac.FnAnd, lac.FnXor, lac.FnMux, lac.FnMaj}
			arity := []int{1, 2, 2, 3, 3}
			kind, n := kinds[int(fn)%len(kinds)], arity[int(fn)%len(kinds)]
			sns := []int{x}
			// The other SNs: the nodes just below t that are not x.
			for s := t - 1; s > 0 && len(sns) < n; s-- {
				if s != x {
					sns = append(sns, s)
				}
			}
			l := &lac.LAC{Target: t, SNs: sns, Fn: lac.Fn{Kind: kind, C0: fn&8 != 0, C1: fn&16 != 0, C2: fn&32 != 0, OutC: fn&64 != 0}}
			if conflictFree(set, l) {
				return l
			}
		}
	}
	return nil
}

// FuzzResimulateMatchesApply checks the measurement kernel against a
// full simulation of lac.Apply. Each input is a random-logic reference,
// a base circuit with up to two fuzzed LACs applied to it, a fuzzed
// pattern count (mostly leaving a partial last word) and a fuzzed
// conflict-free LAC set, with resubstitutions and one LAC whose SN lies
// in another target's fanout cone. The resimulated outputs must equal
// the applied circuit's bit for bit, and under all five metrics, at one
// and three workers, the measured error must equal ErrorFromPOs on them
// and every exact ΔE the error of its candidate applied alone minus the
// base error, bit for bit.
func FuzzResimulateMatchesApply(f *testing.F) {
	f.Add(int64(1), uint16(120), uint8(3), uint16(1000), uint8(0x15), uint16(0x2d), uint8(0x11))
	f.Add(int64(2), uint16(300), uint8(5), uint16(200), uint8(0x07), uint16(0x3ff), uint8(0x4a))
	f.Add(int64(3), uint16(60), uint8(1), uint16(64), uint8(0x01), uint16(0x5), uint8(0x23))
	f.Add(int64(4), uint16(200), uint8(8), uint16(777), uint8(0x00), uint16(0x1ff), uint8(0x7c))
	f.Add(int64(5), uint16(90), uint8(2), uint16(37), uint8(0x09), uint16(0x81), uint8(0x33))
	f.Add(int64(6), uint16(250), uint8(4), uint16(1500), uint8(0x3c), uint16(0xfff), uint8(0x6e))
	f.Fuzz(func(t *testing.T, seed int64, ands uint16, outs uint8, pats uint16, approx uint8, pick uint16, fn uint8) {
		ref := circuits.RandomLogic("fuzz", 6+int(uint64(seed)%5), 1+int(outs)%8, 2+int(ands)%300, seed)
		at := int(uint64(seed) % 1024)
		p := simulate.Random(ref.NumPIs(), 1+int(pats)%1500, seed)
		// The base: ref with up to two LACs applied, so it errs.
		var applied []*lac.LAC
		all := lac.Generate(ref, simulate.MustRun(ref, p), lac.Config{EnableResub: true})
		for b := 0; b < 2 && len(all) > 0; b++ {
			if step := int(approx>>(4*b)) & 15; step != 0 {
				if l := all[(at+7*step+b)%len(all)]; conflictFree(applied, l) {
					applied = append(applied, l)
				}
			}
		}
		g := lac.Apply(ref, applied)
		res := simulate.MustRun(g, p)
		cands := lac.Generate(g, res, lac.Config{EnableResub: true, EnableResub3: true})
		if len(cands) == 0 {
			return
		}
		// The set: candidates picked by the bits of pick, conflict-free,
		// then the cone LAC.
		var set []*lac.LAC
		for b := 0; b < 16; b++ {
			if pick>>uint(b)&1 != 0 {
				if l := cands[(at+37*b)%len(cands)]; conflictFree(set, l) {
					set = append(set, l)
				}
			}
		}
		if l := coneLAC(g, set, fn); l != nil {
			set = append(set, l)
		}
		want := appliedPOs(g, p, set)
		got := ResimulateWithSet(g, res, set)
		for j := range want {
			for w := range want[j] {
				if got[j][w] != want[j][w] {
					t.Fatalf("%d patterns, set %v: output %d word %d: %x, applied %x", p.NumPatterns(), set, j, w, got[j][w], want[j][w])
				}
			}
		}
		// Exact ΔE on a sample of the candidates, whose applied circuits
		// are simulated once for all metrics.
		sample := cands[:min(len(cands), 12)]
		samplePOs := make([][]simulate.Vec, len(sample))
		for i, l := range sample {
			samplePOs[i] = appliedPOs(g, p, []*lac.LAC{l})
		}
		fo := g.Fanouts()
		for _, kind := range allKinds {
			if kind.IsWordLevel() && ref.NumPOs() > 63 {
				continue
			}
			cmp := errmetric.NewComparator(kind, ref, p)
			baseErr := cmp.ErrorFromPOs(res.POValues(g))
			wantSet := cmp.ErrorFromPOs(want)
			for _, workers := range []int{1, 3} {
				what := fmt.Sprintf("%v workers=%d, %d patterns, set %v", kind, workers, p.NumPatterns(), set)
				e := New(workers)
				var out [3]float64
				e.MeasureSets(g, res, cmp, fo, [][]*lac.LAC{set, nil, set[:len(set)/2]}, out[:])
				half := cmp.ErrorFromPOs(appliedPOs(g, p, set[:len(set)/2]))
				for i, w := range []float64{wantSet, baseErr, half} {
					if math.Float64bits(out[i]) != math.Float64bits(w) {
						t.Fatalf("%s: measured set %d error %v, ErrorFromPOs %v", what, i, out[i], w)
					}
				}
				if got := e.EstimateAllExactRec(g, res, cmp, sample, nil); math.Float64bits(got) != math.Float64bits(baseErr) {
					t.Fatalf("%s: exact base error %v, ErrorFromPOs %v", what, got, baseErr)
				}
				each := e.MeasureEach(g, res, cmp, fo, sample, nil)
				for i, l := range sample {
					e := cmp.ErrorFromPOs(samplePOs[i])
					if math.Float64bits(l.DeltaE) != math.Float64bits(e-baseErr) || math.Float64bits(each[i]) != math.Float64bits(e) {
						t.Fatalf("%s: cand %v: exact ΔE %v and measured %v, applied %v − %v", what, l, l.DeltaE, each[i], e, baseErr)
					}
				}
			}
		}
	})
}

// TestMeasureAfterEstimateMatchesFresh checks the measurements that
// reuse the scoring state an estimation filled: under all five metrics
// and both estimation modes, every MeasureSets and MeasureEach result
// must equal a fresh Estimator's bit for bit. It measures the estimated
// graph; a second graph, simulated by the same runner into the
// released first simulation's buffers and measured without an
// estimation; and a third graph's simulation after an ER estimation,
// an estimation of no candidates (both leave the state unfilled), and
// under another metric and back.
func TestMeasureAfterEstimateMatchesFresh(t *testing.T) {
	g1, ref, p := approxMult(t)
	set1 := conflictFreeSet(lac.Generate(g1, simulate.MustRun(g1, p), lac.Config{EnableResub: true}))
	g2 := lac.Apply(g1, set1[:2])
	g3 := lac.Apply(g1, set1[2:4])
	cmpER := errmetric.NewComparator(errmetric.ER, ref, p)
	for _, kind := range allKinds {
		cmp := errmetric.NewComparator(kind, ref, p)
		other := errmetric.NewComparator(allKinds[(int(kind)+1)%len(allKinds)], ref, p)
		for _, exact := range []bool{false, true} {
			e := New(2)
			estimate := func(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, cands []*lac.LAC) {
				if exact {
					e.EstimateAllExactRec(g, res, cmp, cands, nil)
				} else {
					e.EstimateAllRec(g, res, cmp, cands, nil)
				}
			}
			check := func(what string, g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator) {
				t.Helper()
				what = fmt.Sprintf("%v exact=%v, %s under %v", kind, exact, what, cmp.Kind())
				cands := lac.Generate(g, res, lac.Config{EnableResub: true})
				set := conflictFreeSet(cands)
				sets := [][]*lac.LAC{set, set[:1], nil}
				sample := cands[:min(len(cands), 12)]
				fo := g.Fanouts()
				got, want := make([]float64, len(sets)), make([]float64, len(sets))
				e.MeasureSets(g, res, cmp, fo, sets, got)
				New(1).MeasureSets(g, res, cmp, fo, sets, want)
				gotEach := e.MeasureEach(g, res, cmp, fo, sample, nil)
				wantEach := New(1).MeasureEach(g, res, cmp, fo, sample, nil)
				for i := range sets {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: set %d measured %v, fresh estimator %v", what, i, got[i], want[i])
					}
				}
				for i := range sample {
					if math.Float64bits(gotEach[i]) != math.Float64bits(wantEach[i]) {
						t.Fatalf("%s: LAC %d measured %v, fresh estimator %v", what, i, gotEach[i], wantEach[i])
					}
				}
			}
			runner := simulate.NewRunner(1)
			res1, err := runner.Run(g1, p)
			if err != nil {
				t.Fatal(err)
			}
			estimate(g1, res1, cmp, lac.Generate(g1, res1, lac.Config{EnableResub: true}))
			check("estimated graph", g1, res1, cmp)
			runner.Release(res1)
			res2, err := runner.Run(g2, p)
			if err != nil {
				t.Fatal(err)
			}
			check("second graph in recycled buffers", g2, res2, cmp)

			res3 := simulate.MustRun(g3, p)
			cands2 := lac.Generate(g2, res2, lac.Config{EnableResub: true})
			estimate(g3, res3, cmp, lac.Generate(g3, res3, lac.Config{EnableResub: true}))
			e.EstimateAllRec(g2, res2, cmpER, cands2, nil)
			check("after an ER estimation", g3, res3, cmp)
			estimate(g3, res3, cmp, lac.Generate(g3, res3, lac.Config{EnableResub: true}))
			e.EstimateAllRec(g2, res2, cmp, nil, nil)
			check("after estimating no candidates", g3, res3, cmp)
			check("after a measurement", g3, res3, other)
			check("back from another metric", g3, res3, cmp)
		}
	}
}

// conflictFreeSet returns the candidates that can join, in order, a set
// of conflict-free LACs.
func conflictFreeSet(cands []*lac.LAC) []*lac.LAC {
	var set []*lac.LAC
	for _, l := range cands {
		if conflictFree(set, l) {
			set = append(set, l)
		}
	}
	return set
}
