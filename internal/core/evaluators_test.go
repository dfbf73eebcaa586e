package core

import (
	"bytes"
	"testing"

	"accals/internal/aiger"
	"accals/internal/circuits"
	"accals/internal/dispatch"
	"accals/internal/errmetric"
)

// TestEvaluatorPoolBitIdentical runs a full synthesis with candidate
// estimation farmed to an in-process dispatch server and asserts the
// trajectory is bit-identical to a purely local run.
func TestEvaluatorPoolBitIdentical(t *testing.T) {
	wantBytes, wantErrs, wantRes := runIncTrajectory(t, errmetric.NMED, 2, true, Params{})

	g := circuits.ArrayMult(4)
	opt := Options{
		NumPatterns: 1024,
		Workers:     2,
		Incremental: true,
		Params:      Params{Seed: 7, MaxRounds: 30},
	}
	pool := dispatch.NewPool(startBenchEvaluators(t, 1, 2), errmetric.NMED, g, opt.Patterns(g), nil)
	pool.MinBatch = 1
	defer pool.Close()
	opt.Evaluators = pool

	res := Run(g, errmetric.NMED, 0.03, opt)
	var buf bytes.Buffer
	if err := aiger.WriteASCII(&buf, res.Final); err != nil {
		t.Fatal(err)
	}
	errs := make([]float64, len(res.Rounds))
	for i, r := range res.Rounds {
		errs[i] = r.Error
	}
	compareTrajectories(t, "evaluator pool", wantBytes, wantErrs, wantRes, buf.Bytes(), errs, res)
}
