package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"accals/internal/aig"
	"accals/internal/aiger"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/mis"
)

// TestGoldenTrajectories is the refactor gate of the core loop: each
// cell pins a full synthesis run's outcome — final AND count, the
// exact bits of the final error, round count, stop reason, the
// SHA-256 of the final circuit's binary AIGER and, under MaxED, the
// total SAT conflicts spent certifying it (0 when its rounds are
// certified by exhaustive simulation). Every cell runs at
// Workers 1 and 2 with Incremental off and on, and all four runs must
// reproduce the one expected row, so a change to the loop that moves
// any trajectory, or lets the switches disagree, fails here. Cells
// named in genCfg run under that generation config instead of the
// default one, and cells named in exact run with exact estimates.
func TestGoldenTrajectories(t *testing.T) {
	mult4 := func() *aig.Graph { return circuits.ArrayMult(4) }
	rca8 := func() *aig.Graph { return circuits.RCA(8) }
	sin7 := func() *aig.Graph { return circuits.SinCordic(7, 5) }
	ksa16 := func() *aig.Graph { return circuits.KSA(16) }
	cases := []struct {
		name          string
		build         func() *aig.Graph
		metric        errmetric.Kind
		bound         float64
		ld            float64
		ands          int
		errBits       uint64
		rounds        int
		stop          string
		aigSHA256     string
		certConflicts int64
	}{
		{"mult4-er", mult4, errmetric.ER, 0.03, 0,
			110, 0x3f90000000000000, 3, "bounded", "08ae0928cbd3024c397aada5235848ac8632f88afe37b113d80800717299ef9c", 0},
		{"mult4-nmed", mult4, errmetric.NMED, 0.03, 0,
			42, 0x3f9dc5c5c5c5c5bb, 10, "bounded", "70742f66f262485af785ac87e4886be71132cb25e85eee7a8dedc0d630f7a2d4", 0},
		{"mult4-mred", mult4, errmetric.MRED, 0.03, 0,
			85, 0x3f9d0d91912d0a89, 8, "bounded", "1750d1daa1bd4e499b8c1b034977e2d9b4bdd05a26af8063009af4cf701096d7", 0},
		{"mult4-er-revert", mult4, errmetric.ER, 0.03, -0.5,
			109, 0x3f90000000000000, 6, "bounded", "97834a043087d619aac9b7ca6f1c3cbbeb7c4930277cf84e0ed7d4f6f2325d7e", 0},
		{"rca8-maxed", rca8, errmetric.MaxED, 16, 0,
			47, 0x402a000000000000, 5, "bounded", "09fad21aee577a826a0c8df560157bf8ca03b5ba7b2fb6568b2bd8b39177d67d", 956},
		{"mult4-maxed", mult4, errmetric.MaxED, 16, 0,
			75, 0x4030000000000000, 9, "bounded", "545239972243235faed13457ba0d2cec81344279ea487744670e193b944a802f", 0},
		// G_sol outgrows mis.ExactLimit here, so the heuristic MIS
		// path (greedy, local search, seeded restarts) is pinned too.
		{"sin7-er", sin7, errmetric.ER, 0.03, 0,
			177, 0x3f90000000000000, 8, "bounded", "f5c3de1c8d831c2981be7c214eb16e17345b8ca5d88f9302729f0bbdb789644f", 0},
		// Two- and three-input resubstitution candidates, whose gains
		// count the target's cone minus what its SNs keep alive. The
		// run applies pair and MUX resubstitutions.
		{"mult4-nmed-resub", mult4, errmetric.NMED, 0.03, 0,
			34, 0x3f9e2e2e2e2e2e1b, 12, "bounded", "983591733fb75a4fe6203c8488e686d6cda1452d5212d0ceb18223e4dc98a87b", 0},
		// A 17-output adder: a target in the logic of the upper sum
		// bits reaches only the upper outputs, so word-level scoring
		// sees live output ranges that start above PO 0.
		{"ksa16-nmed", ksa16, errmetric.NMED, 0.005, 0,
			71, 0x3f71242a92154918, 8, "bounded", "22cad9bb51ca7036000101506744cee110d051aa3c022f7aff50c4adfe6dee6d", 0},
		// Exact estimation: every candidate's ΔE is its measured error
		// increase under the pattern set, under each metric. The mult4
		// ER run takes the same path as the fast estimator's; on the
		// reconvergent CORDIC circuit the exact ER run leaves the fast
		// one's path (sin7-er: 177 ANDs in 8 rounds).
		{"mult4-er-exact", mult4, errmetric.ER, 0.03, 0,
			110, 0x3f90000000000000, 3, "bounded", "08ae0928cbd3024c397aada5235848ac8632f88afe37b113d80800717299ef9c", 0},
		{"sin7-er-exact", sin7, errmetric.ER, 0.03, 0,
			183, 0x3f90000000000000, 7, "bounded", "19485292295904ac4cd9f328edf6c5b3835e95168b04340fe28bd0cda93a0c09", 0},
		{"mult4-nmed-exact", mult4, errmetric.NMED, 0.03, 0,
			31, 0x3f9e8e8e8e8e8e7e, 15, "bounded", "de1958f6c1a4242f1f58ef2aaf02bf8d6282d219f21d1a870f6c7462b29f4450", 0},
		{"mult4-mred-exact", mult4, errmetric.MRED, 0.03, 0,
			87, 0x3f9ca036c2ae99c1, 9, "bounded", "bba492b496e45e059cd4fec2d65118999de2ed05b7c70ef46496c2398653356b", 0},
		{"mult4-maxed-exact", mult4, errmetric.MaxED, 16, 0,
			74, 0x402e000000000000, 8, "bounded", "ec5f1dd8d95712f3489b11a7afe521f6c79645dc3a17d4c82ecb2785fcd29fce", 0},
	}
	genCfg := map[string]lac.Config{
		"mult4-nmed-resub": {EnableResub: true, EnableResub3: true},
	}
	exact := map[string]bool{
		"mult4-er-exact":    true,
		"sin7-er-exact":     true,
		"mult4-nmed-exact":  true,
		"mult4-mred-exact":  true,
		"mult4-maxed-exact": true,
	}

	runs, guardRounds, revertedRounds, heuristicMIS := 0, 0, 0, 0
	satCertified, sweptCertified := 0, 0
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			for _, incremental := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/workers=%d/incremental=%v", tc.name, workers, incremental), func(t *testing.T) {
					res := Run(tc.build(), tc.metric, tc.bound, Options{
						NumPatterns:    1024,
						Workers:        workers,
						Incremental:    incremental,
						GenCfg:         genCfg[tc.name],
						ExactEstimates: exact[tc.name],
						Params:         Params{Seed: 7, MaxRounds: 30, LD: tc.ld},
					})
					var buf bytes.Buffer
					if err := aiger.WriteBinary(&buf, res.Final); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(buf.Bytes())
					got := fmt.Sprintf("ands=%d err=%#x rounds=%d stop=%s sha256=%s conflicts=%d",
						res.Final.NumAnds(), math.Float64bits(res.Error), len(res.Rounds),
						res.StopReason, hex.EncodeToString(sum[:]), res.CertConflicts)
					want := fmt.Sprintf("ands=%d err=%#x rounds=%d stop=%s sha256=%s conflicts=%d",
						tc.ands, tc.errBits, tc.rounds, tc.stop, tc.aigSHA256, tc.certConflicts)
					if got != want {
						t.Errorf("trajectory moved:\n got %s\nwant %s", got, want)
					}
					runs++
					if tc.metric == errmetric.MaxED && res.Certified {
						if res.CertConflicts > 0 {
							satCertified++
						} else {
							sweptCertified++
						}
					}
					for _, r := range res.Rounds {
						if r.GuardSingle {
							guardRounds++
						}
						if r.Reverted {
							revertedRounds++
						}
						if r.SolSize > mis.ExactLimit {
							heuristicMIS++
						}
					}
				})
			}
		}
	}
	// The table must reach both of the loop's fallback paths, the
	// heuristic MIS solver and both certification paths (SAT above
	// simulate.ExhaustiveLimit inputs, exhaustive simulation at or
	// below it), or a refactor of any would go unchecked. A -run filter
	// that skips cells skips this check too.
	if runs < 4*len(cases) {
		return
	}
	if guardRounds == 0 {
		t.Error("no cell ran a guard-single round")
	}
	if revertedRounds == 0 {
		t.Error("no cell ran a reverted round")
	}
	if heuristicMIS == 0 {
		t.Error("no cell solved a G_sol above mis.ExactLimit")
	}
	if satCertified == 0 {
		t.Error("no MaxED cell spent SAT conflicts certifying")
	}
	if sweptCertified == 0 {
		t.Error("no MaxED cell certified without SAT conflicts")
	}
}
