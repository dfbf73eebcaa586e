package core

import (
	"fmt"
	"testing"

	"accals/internal/circuits"
	"accals/internal/errmetric"
)

// BenchmarkRoundParallel measures whole-flow round throughput at
// several worker counts: each iteration runs a bounded synthesis
// (simulate → generate → estimate → select → duel-measure → apply) and
// reports rounds/sec. It is a quick check of worker scaling; recorded
// performance figures come from the synthbench harness
// (bash synthbench/run.sh), the repository's one benchmark.
func BenchmarkRoundParallel(b *testing.B) {
	g := circuits.ArrayMult(6)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			rounds := 0
			for i := 0; i < b.N; i++ {
				res := Run(g, errmetric.ER, 0.02, Options{
					NumPatterns: 1 << 13,
					Workers:     workers,
					Params:      Params{Seed: 5, MaxRounds: 8},
				})
				rounds += len(res.Rounds)
			}
			b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
}
