package estimator

import (
	"math"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// approxMult returns a 4x4 multiplier with one error-introducing LAC
// applied, the exact reference and a pattern set with a partial last
// word, so the word-level scores start from a nonzero base error.
func approxMult(t *testing.T) (g, ref *aig.Graph, p *simulate.Patterns) {
	t.Helper()
	ref = circuits.ArrayMult(4)
	p = simulate.NewPatterns(ref.NumPIs(), 1000, 5)
	res := simulate.MustRun(ref, p)
	cmp := errmetric.NewComparator(errmetric.NMED, ref, p)
	for _, l := range lac.Generate(ref, res, lac.Config{EnableResub: true}) {
		if ExactDeltaE(ref, res, cmp, l) > 0 {
			return lac.Apply(ref, []*lac.LAC{l}), ref, p
		}
	}
	t.Fatal("no error-introducing candidate")
	return nil, nil, nil
}

// TestWordLevelDeltaEMatchesFlipScoring builds each candidate's output
// flips the way the estimator did before it scored from target masks —
// pm & dev per (candidate, output), nil when the target cannot reach
// the output or the AND is empty — and checks that every word-level
// DeltaE equals ErrorWithFlips/MaxErrorWithFlips on those flips, bit
// for bit, sequentially and sharded.
func TestWordLevelDeltaEMatchesFlipScoring(t *testing.T) {
	g, ref, p := approxMult(t)
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	words := p.Words()

	devs := make([]simulate.Vec, len(cands))
	flips := make([][]simulate.Vec, len(cands))
	for i, l := range cands {
		devs[i] = make(simulate.Vec, words)
		l.DeviationInto(devs[i], res)
		flips[i] = make([]simulate.Vec, g.NumPOs())
	}
	prop := &propagator{}
	prop.reset(g, res)
	for j := 0; j < g.NumPOs(); j++ {
		masks := prop.run(j)
		for i, l := range cands {
			pm := masks[l.Target]
			if pm == nil {
				continue
			}
			var f simulate.Vec
			for w := 0; w < words; w++ {
				if b := pm[w] & devs[i][w]; b != 0 {
					if f == nil {
						f = make(simulate.Vec, words)
					}
					f[w] = b
				}
			}
			flips[i][j] = f
		}
	}

	for _, kind := range []errmetric.Kind{errmetric.NMED, errmetric.MRED, errmetric.MaxED} {
		cmp := errmetric.NewComparator(kind, ref, p)
		curPOs := res.POValues(g)
		curErr := cmp.ErrorFromPOs(curPOs)
		if curErr == 0 {
			t.Fatalf("%v: base circuit is exact", kind)
		}
		base := cmp.NewBaseEval(curPOs)
		score := cmp.ErrorWithFlips
		if kind == errmetric.MaxED {
			score = cmp.MaxErrorWithFlips
		}
		for _, workers := range []int{1, 3} {
			New(workers).EstimateAllRec(g, res, cmp, cands, nil)
			for i, l := range cands {
				want := score(base, flips[i]) - curErr
				if math.Float64bits(l.DeltaE) != math.Float64bits(want) {
					t.Fatalf("%v workers=%d cand %d (%v): DeltaE %v, flip scoring %v", kind, workers, i, l, l.DeltaE, want)
				}
			}
		}
	}
}

// TestEstimateAllocsFlat pins the word-level estimator's allocations:
// once warmed, a round allocates a fixed number of times however many
// candidates it scores. (Building a flip vector per candidate and
// output allocated about 20k times per round on ArrayMult(6).)
func TestEstimateAllocsFlat(t *testing.T) {
	g := circuits.ArrayMult(5)
	p := simulate.NewPatterns(g.NumPIs(), 2048, 1)
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	few := cands[:len(cands)/16]
	for _, kind := range []errmetric.Kind{errmetric.NMED, errmetric.MaxED} {
		cmp := errmetric.NewComparator(kind, g, p)
		e := New(1)
		allocs := func(cs []*lac.LAC) float64 {
			e.EstimateAllRec(g, res, cmp, cands, nil) // warm every arena to the full batch
			return testing.AllocsPerRun(10, func() { e.EstimateAllRec(g, res, cmp, cs, nil) })
		}
		a1, a2 := allocs(few), allocs(cands)
		t.Logf("%v: %v allocs for %d candidates, %v for %d", kind, a1, len(few), a2, len(cands))
		// The deviation slab comes from a sync.Pool, which under the
		// race detector drops a quarter of its Puts at random; each
		// drop costs one slab allocation, so either average can be one
		// higher.
		if a2 > a1+1 {
			t.Errorf("%v: %v allocs for %d candidates but %v for %d; want no growth", kind, a1, len(few), a2, len(cands))
		}
	}
}
