package errmetric

import (
	"fmt"
	"math/rand"
	"testing"

	"accals/internal/circuits"
	"accals/internal/simulate"
)

// BenchmarkScoreTarget times one ScoreTarget call per word-level metric
// on an 8x8 multiplier (16 outputs) under 8192 patterns: a noisy base,
// and a target that flips outputs 4 to 15 on about one pattern in four,
// scored for one candidate without a deviation mask (the
// ErrorWithFlips call) and for 16 candidates with random deviation
// masks.
func BenchmarkScoreTarget(b *testing.B) {
	g := circuits.ArrayMult(8)
	p := simulate.Random(g.NumPIs(), 1<<13, 1)
	for _, kind := range []Kind{NMED, MRED, MaxED} {
		cmp := NewComparator(kind, g, p)
		rng := rand.New(rand.NewSource(1))
		base := cmp.NewBaseEval(noisyPOs(cmp.ExactPOs(), rng))
		masks := make([]simulate.Vec, g.NumPOs())
		for j := 4; j < len(masks); j++ {
			masks[j] = randomVec(p, rng, 2)
		}
		for _, n := range []int{1, 16} {
			devs := make([]simulate.Vec, n)
			if n > 1 {
				for k := range devs {
					devs[k] = randomVec(p, rng, 1)
				}
			}
			out := make([]float64, n)
			b.Run(fmt.Sprintf("%v/cands=%d", kind, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cmp.ScoreTarget(base, masks, devs, out)
				}
			})
		}
	}
}
