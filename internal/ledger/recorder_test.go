package ledger_test

import (
	"bytes"
	"testing"

	"accals/internal/circuits"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/ledger"
	"accals/internal/obs"
	"accals/internal/seals"
)

// runCounts are the run counters of obs.Summary that describe rounds.
type runCounts struct {
	Rounds, LACsEvaluated, LACsApplied, LACsReverted int64
	GuardSingleLAC, GuardNegativeRevert              int64
	DuelIndpWins, DuelRandomWins                     int64
}

// TestRecorderCountsMatchLedger runs the flows with a recorder and a
// ledger sink and checks that the recorder's run counters equal what
// the decoded ledger says about the same rounds: the recorder derives
// them from the round events, so the two may never disagree. The
// AccALS runs force both guards (l_d = 1e-9 reverts rounds after their
// duels, l_e = 1e-9 falls back to single-LAC selection), and the SEALS
// run reports single-selection rounds.
func TestRecorderCountsMatchLedger(t *testing.T) {
	g := circuits.ArrayMult(8)
	runs := []struct {
		name string
		run  func(core.Options) *core.Result
	}{
		{"accals-ld", func(o core.Options) *core.Result {
			o.Params.LD = 1e-9
			return core.Run(g, errmetric.ER, 0.05, o)
		}},
		{"accals-le", func(o core.Options) *core.Result {
			o.Params.LE = 1e-9
			return core.Run(g, errmetric.ER, 0.05, o)
		}},
		{"seals", func(o core.Options) *core.Result {
			return seals.Run(g, errmetric.ER, 0.05, o)
		}},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := ledger.NewWriter(&buf)
			rec := obs.NewRecorder()
			rec.AddSink(w)
			res := tc.run(core.Options{NumPatterns: 512, Recorder: rec})
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
			events, err := ledger.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := ledger.Analyze(events)
			if err != nil {
				t.Fatal(err)
			}

			var want runCounts
			want.Rounds = int64(len(tr.Rounds))
			for _, r := range tr.Rounds {
				want.LACsEvaluated += int64(r.Candidates)
				want.LACsApplied += int64(len(r.Applied))
				if r.Reverted {
					// The revert undid the set the round had picked.
					if r.PickedIndp {
						want.LACsReverted += int64(r.IndpSize)
					} else {
						want.LACsReverted += int64(r.RandSize)
					}
				}
			}
			single, reverts := tr.Guards()
			duels, indpWins := tr.Duels()
			want.GuardSingleLAC, want.GuardNegativeRevert = int64(single), int64(reverts)
			want.DuelIndpWins, want.DuelRandomWins = int64(indpWins), int64(duels-indpWins)

			s := rec.Summary()
			got := runCounts{
				Rounds: s.Rounds, LACsEvaluated: s.LACsEvaluated, LACsApplied: s.LACsApplied,
				LACsReverted: s.LACsReverted, GuardSingleLAC: s.GuardSingleLAC,
				GuardNegativeRevert: s.GuardNegativeRevert,
				DuelIndpWins:        s.DuelIndpWins, DuelRandomWins: s.DuelRandomWins,
			}
			if got != want {
				t.Fatalf("recorder counts %+v, ledger counts %+v", got, want)
			}
			if got.Rounds != int64(len(res.Rounds)) || got.LACsApplied != int64(res.LACsApplied) {
				t.Fatalf("recorder has %d rounds and %d applied LACs, the result %d and %d",
					got.Rounds, got.LACsApplied, len(res.Rounds), res.LACsApplied)
			}
			if res.IndpRatio() != tr.IndpRatio() {
				t.Fatalf("result L_indp ratio %v, ledger %v", res.IndpRatio(), tr.IndpRatio())
			}

			// Each run exercises what it is here for.
			switch tc.name {
			case "accals-ld":
				if reverts == 0 || duels == 0 || got.LACsReverted == 0 {
					t.Fatalf("l_d run had %d reverts of %d LACs and %d duels; want all three non-zero",
						reverts, got.LACsReverted, duels)
				}
			case "accals-le":
				if single == 0 {
					t.Fatal("l_e run had no single-LAC rounds")
				}
			case "seals":
				if got.Rounds == 0 || got.LACsApplied != got.Rounds {
					t.Fatalf("seals run applied %d LACs in %d rounds; want one per round", got.LACsApplied, got.Rounds)
				}
			}
		})
	}
}
