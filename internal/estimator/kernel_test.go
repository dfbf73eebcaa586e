package estimator

import (
	"fmt"
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
func approxMult(t testing.TB) (g, ref *aig.Graph, p *simulate.Patterns) {
	t.Helper()
	ref = circuits.ArrayMult(4)
	p = simulate.Random(ref.NumPIs(), 1000, 5)
	return approxOf(t, ref, p), ref, p
}

// approxOf returns ref with its first error-introducing LAC under p
// applied.
func approxOf(t testing.TB, ref *aig.Graph, p *simulate.Patterns) *aig.Graph {
	t.Helper()
	res := simulate.MustRun(ref, p)
	cmp := errmetric.NewComparator(errmetric.NMED, ref, p)
	for _, l := range lac.Generate(ref, res, lac.Config{EnableResub: true}) {
		if ExactDeltaE(ref, res, cmp, l) > 0 {
			return lac.Apply(ref, []*lac.LAC{l})
		}
	}
	t.Fatal("no error-introducing candidate")
	return nil
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
	prop.reset(g, res.NodeVals, 0, rootOf(res.Patterns))
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
	prop.reset(g, res.NodeVals, 0, rootOf(res.Patterns))
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

// TestERDeltaEMatchesAnyDiffRows checks that every ER ΔE equals the
// per-(output, candidate) any-diff rows bit for bit, sequentially and
// sharded, on three bases over a partial last word: the exact circuit
// (only the all-output pass runs), a base that errs on three words
// including the last (both passes run, over a reordered value table)
// and one that errs on every word (only the per-output passes run).
// Some targets reach only some outputs.
func TestERDeltaEMatchesAnyDiffRows(t *testing.T) {
	approx, ref, p := approxMult(t)
	if p.NumPatterns()%64 == 0 {
		t.Fatalf("%d patterns fill the last word", p.NumPatterns())
	}
	last := p.Words() - 1
	fewWords := []int{2, 9, last}
	few, ok := erringPatterns(approx, ref, p.NumPatterns(), func(w int) bool { return w == 2 || w == 9 || w == last }, 5)
	if !ok {
		t.Fatal("no patterns for the few-word base")
	}
	for _, c := range []struct {
		name  string
		g     *aig.Graph
		p     *simulate.Patterns
		words []int // the erring words; nil: every word
	}{
		{"exact", ref, p, []int{}},
		{"few words", approx, few, fewWords},
		{"every word", approx, p, nil},
	} {
		res := simulate.MustRun(c.g, c.p)
		cands := lac.Generate(c.g, res, lac.Config{EnableResub: true})
		cmp := errmetric.NewComparator(errmetric.ER, ref, c.p)
		got := anyDiffWords(c.g, res, cmp)
		if c.words == nil && len(got) != c.p.Words() || c.words != nil && fmt.Sprint(got) != fmt.Sprint(c.words) {
			t.Fatalf("%s: base errs on words %v", c.name, got)
		}
		want, reach := refERDeltaE(c.g, res, cmp, cands)
		partial := false
		for _, r := range reach {
			partial = partial || (r > 0 && r < c.g.NumPOs())
		}
		if !partial {
			t.Fatalf("%s: no target reaches only some outputs", c.name)
		}
		wantErr := cmp.ErrorFromPOs(res.POValues(c.g))
		for _, workers := range []int{1, 2, 3, 1000} {
			if gotErr := New(workers).EstimateAllRec(c.g, res, cmp, cands, nil); math.Float64bits(gotErr) != math.Float64bits(wantErr) {
				t.Fatalf("%s workers=%d: base error %v, ErrorFromPOs %v", c.name, workers, gotErr, wantErr)
			}
			for i, l := range cands {
				if math.Float64bits(l.DeltaE) != math.Float64bits(want[i]) {
					t.Fatalf("%s workers=%d cand %d (%v): DeltaE %v, any-diff rows %v", c.name, workers, i, l, l.DeltaE, want[i])
				}
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
// of times however many candidates it scores. ER runs on the exact
// circuit and on a base that errs on some words, so both of its passes
// and the reordered value table are warm. Exact estimation and
// measurement run through the resimulation kernel, whose scratch must
// not grow with the candidates or with the nodes a set changes. (Building
// a flip vector per candidate and output allocated about 20k times per
// round on ArrayMult(6).)
func TestEstimateAllocsFlat(t *testing.T) {
	ref := circuits.ArrayMult(5)
	p := simulate.NewPatterns(ref.NumPIs(), 2048, 1)
	approx := approxOf(t, ref, p)
	mixed, ok := erringPatterns(approx, ref, 2048, func(w int) bool { return w%5 == 1 }, 1)
	if !ok {
		t.Fatal("no patterns for the mixed base")
	}
	for _, c := range []struct {
		name string
		kind errmetric.Kind
		g    *aig.Graph
		p    *simulate.Patterns
		// mode is "estimate", "exact" or "measure".
		mode string
	}{
		{"ER", errmetric.ER, ref, p, "estimate"},
		{"ER, base errs on some words", errmetric.ER, approx, mixed, "estimate"},
		{"NMED", errmetric.NMED, ref, p, "estimate"},
		{"MaxED", errmetric.MaxED, ref, p, "estimate"},
		{"exact NMED", errmetric.NMED, approx, p, "exact"},
		{"exact ER", errmetric.ER, approx, mixed, "exact"},
		{"measured MRED", errmetric.MRED, approx, p, "measure"},
		{"measured MaxED", errmetric.MaxED, approx, p, "measure"},
	} {
		res := simulate.MustRun(c.g, c.p)
		cands := lac.Generate(c.g, res, lac.Config{EnableResub: true})
		few := cands[:len(cands)/16]
		cmp := errmetric.NewComparator(c.kind, ref, c.p)
		if c.g == approx && len(anyDiffWords(c.g, res, cmp)) == 0 {
			t.Fatalf("%s: base is exact", c.name)
		}
		e := New(1)
		fo := c.g.Fanouts()
		// One set of a single LAC and one of many, conflict-free.
		var set []*lac.LAC
		for _, l := range cands {
			if conflictFree(set, l) {
				set = append(set, l)
			}
		}
		small, large := [][]*lac.LAC{set[len(set)-1:]}, [][]*lac.LAC{set}
		var out [1]float64
		run := func(cs []*lac.LAC, sets [][]*lac.LAC) {
			switch c.mode {
			case "estimate":
				e.EstimateAllRec(c.g, res, cmp, cs, nil)
			case "exact":
				e.EstimateAllExactRec(c.g, res, cmp, cs, nil)
			default:
				e.MeasureSets(c.g, res, cmp, fo, sets, out[:])
			}
		}
		allocs := func(cs []*lac.LAC, sets [][]*lac.LAC) float64 {
			run(cands, large) // warm every arena to the full batch
			return testing.AllocsPerRun(10, func() { run(cs, sets) })
		}
		a1, a2 := allocs(few, small), allocs(cands, large)
		what, n1, n2 := "candidates", len(few), len(cands)
		if c.mode == "measure" {
			what, n1, n2 = "LACs in the set", len(small[0]), len(set)
		}
		t.Logf("%s: %v allocs for %d %s, %v for %d", c.name, a1, n1, what, a2, n2)
		// Every buffer that grows with the batch lives in the
		// Estimator, so the counts are exact, race detector included.
		if a2 > a1 {
			t.Errorf("%s: %v allocs for %d %s but %v for %d; want no growth", c.name, a1, n1, what, a2, n2)
		}
	}
}
