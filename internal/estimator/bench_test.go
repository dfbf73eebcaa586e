package estimator

import (
	"fmt"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// BenchmarkEstimateAll measures sharded batch estimation against the
// sequential baseline under ER and the three word-level metrics, on a
// mid-size multiplier (12 outputs) and on a 33-output adder, both
// exact, and under ER on an approximate multiplier that errs on one
// pattern word in eight, where both of ER's passes run.
func BenchmarkEstimateAll(b *testing.B) {
	all := []errmetric.Kind{errmetric.ER, errmetric.NMED, errmetric.MRED, errmetric.MaxED}
	mult6 := circuits.ArrayMult(6)
	p := simulate.NewPatterns(mult6.NumPIs(), 1<<13, 1)
	approx := approxOf(b, mult6, p)
	mixed, ok := erringPatterns(approx, mult6, 1<<13, func(w int) bool { return w%8 == 3 }, 1)
	if !ok {
		b.Fatal("no patterns for the mixed base")
	}
	ksa32 := circuits.KSA(32)
	for _, c := range []struct {
		name   string
		g, ref *aig.Graph
		p      *simulate.Patterns
		kinds  []errmetric.Kind
	}{
		{"mult6", mult6, mult6, p, all},
		{"ksa32", ksa32, ksa32, simulate.NewPatterns(ksa32.NumPIs(), 1<<13, 1), all},
		{"mult6-mixed", approx, mult6, mixed, []errmetric.Kind{errmetric.ER}},
	} {
		g := c.g
		res := simulate.MustRun(g, c.p)
		cands := lac.Generate(g, res, lac.Config{EnableResub: true})
		for _, kind := range c.kinds {
			cmp := errmetric.NewComparator(kind, c.ref, c.p)
			for _, workers := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%v/workers=%d", c.name, kind, workers), func(b *testing.B) {
					e := New(workers)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						e.EstimateAllRec(g, res, cmp, cands, nil)
					}
				})
			}
		}
	}
}

// BenchmarkEstimateAllSmallBatch pins the oversharding fix: a small
// circuit with few outputs and a modest candidate list must not fan
// out one goroutine per output at high worker counts. Before
// par.BlocksMin, workers=8 here spawned eight propagators (each with a
// graph-sized mask pool) for six outputs; with the min-work cap the
// fan-out and per-op cost at workers>=4 stay close to workers=1.
func BenchmarkEstimateAllSmallBatch(b *testing.B) {
	g := circuits.ArrayMult(3)
	p := simulate.NewPatterns(g.NumPIs(), 1<<10, 1)
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{})
	for _, kind := range []errmetric.Kind{errmetric.ER, errmetric.NMED} {
		cmp := errmetric.NewComparator(kind, g, p)
		for _, workers := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%v/workers=%d", kind, workers), func(b *testing.B) {
				e := New(workers)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.EstimateAllRec(g, res, cmp, cands, nil)
				}
			})
		}
	}
}

// BenchmarkEstimateAllExact measures exact estimation, which measures
// every candidate by resimulating and scoring what it changes, on the
// exact mid-size multiplier and 33-output adder under ER, NMED and
// MaxED.
func BenchmarkEstimateAllExact(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *aig.Graph
	}{
		{"mult6", circuits.ArrayMult(6)},
		{"ksa32", circuits.KSA(32)},
	} {
		g := c.g
		p := simulate.NewPatterns(g.NumPIs(), 1<<13, 1)
		res := simulate.MustRun(g, p)
		cands := lac.Generate(g, res, lac.Config{EnableResub: true})
		for _, kind := range []errmetric.Kind{errmetric.ER, errmetric.NMED, errmetric.MaxED} {
			cmp := errmetric.NewComparator(kind, g, p)
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%v/workers=%d", c.name, kind, workers), func(b *testing.B) {
					e := New(workers)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						e.EstimateAllExactRec(g, res, cmp, cands, nil)
					}
				})
			}
		}
	}
}
