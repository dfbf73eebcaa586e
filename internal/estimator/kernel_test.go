package estimator

import (
	"math"
	"math/rand"
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
	p = simulate.Random(ref.NumPIs(), 1000, 5)
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

// refERDeltaE is the ER fast path that per-target masks replaced: for
// every output j and candidate, it ORs d_j ⊕ (p_j ∧ v) into the
// candidate's own any-diff row, where d_j is the base diff of output j,
// p_j the target's propagation mask (nil: d_j alone) and v the
// candidate's deviation mask. It also returns, per candidate, the
// number of outputs its target's masks reach.
func refERDeltaE(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, cands []*lac.LAC) (deltas []float64, reach []int) {
	words := res.Patterns.Words()
	curPOs := res.POValues(g)
	curErr := cmp.ErrorFromPOs(curPOs)
	exact := cmp.ExactPOs()
	devs := make([]simulate.Vec, len(cands))
	rows := make([]simulate.Vec, len(cands))
	for i, l := range cands {
		devs[i] = make(simulate.Vec, words)
		l.DeviationInto(devs[i], res)
		rows[i] = make(simulate.Vec, words)
	}
	reach = make([]int, len(cands))
	prop := &propagator{}
	prop.reset(g, res)
	diffJ := make(simulate.Vec, words)
	for j := 0; j < g.NumPOs(); j++ {
		masks := prop.run(j)
		for w := 0; w < words; w++ {
			diffJ[w] = curPOs[j][w] ^ exact[j][w]
		}
		for i, l := range cands {
			row := rows[i]
			pm := masks[l.Target]
			if pm == nil {
				for w := 0; w < words; w++ {
					row[w] |= diffJ[w]
				}
				continue
			}
			reach[i]++
			for w := 0; w < words; w++ {
				row[w] |= diffJ[w] ^ (pm[w] & devs[i][w])
			}
		}
	}
	n := float64(res.Patterns.NumPatterns())
	deltas = make([]float64, len(cands))
	for i, row := range rows {
		deltas[i] = float64(simulate.PopCount(row))/n - curErr
	}
	return deltas, reach
}

// TestERDeltaEMatchesAnyDiffRows checks that every ER ΔE from the
// per-target masks equals the per-(output, candidate) any-diff rows
// bit for bit, sequentially and sharded, on a base with nonzero error,
// a partial last word and targets that reach only some outputs.
func TestERDeltaEMatchesAnyDiffRows(t *testing.T) {
	g, ref, p := approxMult(t)
	if p.NumPatterns()%64 == 0 {
		t.Fatalf("%d patterns fill the last word", p.NumPatterns())
	}
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	cmp := errmetric.NewComparator(errmetric.ER, ref, p)
	if cmp.ErrorFromPOs(res.POValues(g)) == 0 {
		t.Fatal("base circuit is exact")
	}
	want, reach := refERDeltaE(g, res, cmp, cands)
	partial := false
	for _, r := range reach {
		partial = partial || (r > 0 && r < g.NumPOs())
	}
	if !partial {
		t.Fatal("no target reaches only some outputs")
	}
	for _, workers := range []int{1, 3} {
		New(workers).EstimateAllRec(g, res, cmp, cands, nil)
		for i, l := range cands {
			if math.Float64bits(l.DeltaE) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d cand %d (%v): DeltaE %v, any-diff rows %v", workers, i, l, l.DeltaE, want[i])
			}
		}
	}
}

// TestEstimateShuffledBatch checks that estimation does not depend on
// the generator emitting candidates grouped by target: a shuffled
// batch gets every candidate's ΔE bit for bit, sequentially and
// sharded.
func TestEstimateShuffledBatch(t *testing.T) {
	g, ref, p := approxMult(t)
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	shuffled := append([]*lac.LAC(nil), cands...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, kind := range []errmetric.Kind{errmetric.ER, errmetric.NMED, errmetric.MRED, errmetric.MaxED} {
		cmp := errmetric.NewComparator(kind, ref, p)
		New(1).EstimateAllRec(g, res, cmp, cands, nil)
		want := make([]float64, len(cands))
		for i, l := range cands {
			want[i] = l.DeltaE
		}
		for _, workers := range []int{1, 3} {
			for _, l := range cands {
				l.DeltaE = 0
			}
			New(workers).EstimateAllRec(g, res, cmp, shuffled, nil)
			for i, l := range cands {
				if math.Float64bits(l.DeltaE) != math.Float64bits(want[i]) {
					t.Fatalf("%v workers=%d cand %d (%v): shuffled %v, in order %v", kind, workers, i, l, l.DeltaE, want[i])
				}
			}
		}
	}
}

// TestEstimateAllocsFlat pins the estimator's allocations under ER and
// the word-level metrics: once warmed, a round allocates a fixed number
// of times however many candidates it scores. (Building a flip vector
// per candidate and output allocated about 20k times per round on
// ArrayMult(6).)
func TestEstimateAllocsFlat(t *testing.T) {
	g := circuits.ArrayMult(5)
	p := simulate.NewPatterns(g.NumPIs(), 2048, 1)
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	few := cands[:len(cands)/16]
	for _, kind := range []errmetric.Kind{errmetric.ER, errmetric.NMED, errmetric.MaxED} {
		cmp := errmetric.NewComparator(kind, g, p)
		e := New(1)
		allocs := func(cs []*lac.LAC) float64 {
			e.EstimateAllRec(g, res, cmp, cands, nil) // warm every arena to the full batch
			return testing.AllocsPerRun(10, func() { e.EstimateAllRec(g, res, cmp, cs, nil) })
		}
		a1, a2 := allocs(few), allocs(cands)
		t.Logf("%v: %v allocs for %d candidates, %v for %d", kind, a1, len(few), a2, len(cands))
		// Every buffer that grows with the batch lives in the
		// Estimator, so the counts are exact, race detector included.
		if a2 > a1 {
			t.Errorf("%v: %v allocs for %d candidates but %v for %d; want no growth", kind, a1, len(few), a2, len(cands))
		}
	}
}
