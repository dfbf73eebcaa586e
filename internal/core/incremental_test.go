package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"accals/internal/aiger"
	"accals/internal/checkpoint"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/runctl"
)

// runIncTrajectory runs ArrayMult(4) under the given metric, worker
// count and incremental switch, mirroring runTrajectory.
func runIncTrajectory(t *testing.T, metric errmetric.Kind, workers int, incremental bool, params Params) ([]byte, []float64, *Result) {
	t.Helper()
	g := circuits.ArrayMult(4)
	if params.Seed == 0 {
		params.Seed = 7
	}
	if params.MaxRounds == 0 {
		params.MaxRounds = 30
	}
	res := Run(g, metric, 0.03, Options{
		NumPatterns: 1024,
		Workers:     workers,
		Incremental: incremental,
		Params:      params,
	})
	var buf bytes.Buffer
	if err := aiger.WriteASCII(&buf, res.Final); err != nil {
		t.Fatal(err)
	}
	errs := make([]float64, len(res.Rounds))
	for i, r := range res.Rounds {
		errs[i] = r.Error
	}
	return buf.Bytes(), errs, res
}

// compareTrajectories asserts bit-identity of two runs: same circuit
// bytes, same per-round errors, same final error and stop reason.
func compareTrajectories(t *testing.T, label string, wantBytes []byte, wantErrs []float64, wantRes *Result, gotBytes []byte, gotErrs []float64, gotRes *Result) {
	t.Helper()
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Fatalf("%s: final circuit differs", label)
	}
	if len(gotErrs) != len(wantErrs) {
		t.Fatalf("%s: %d rounds vs %d", label, len(gotErrs), len(wantErrs))
	}
	for i := range wantErrs {
		if gotErrs[i] != wantErrs[i] {
			t.Fatalf("%s round %d: error %g, want %g (must be bit-identical)", label, i, gotErrs[i], wantErrs[i])
		}
	}
	if gotRes.Error != wantRes.Error || gotRes.StopReason != wantRes.StopReason {
		t.Fatalf("%s: result (%g, %v) vs (%g, %v)", label,
			gotRes.Error, gotRes.StopReason, wantRes.Error, wantRes.StopReason)
	}
}

// TestIncrementalBitIdentical is the tentpole correctness contract:
// Incremental: true must produce a bit-identical trajectory to
// Incremental: false across metric families and worker counts.
func TestIncrementalBitIdentical(t *testing.T) {
	for _, metric := range []errmetric.Kind{errmetric.ER, errmetric.MHD, errmetric.NMED, errmetric.MRED} {
		wantBytes, wantErrs, wantRes := runIncTrajectory(t, metric, 1, false, Params{})
		if len(wantErrs) < 3 {
			t.Fatalf("%v: only %d rounds ran; trajectory too short to be meaningful", metric, len(wantErrs))
		}
		for _, workers := range []int{1, 4} {
			gotBytes, gotErrs, gotRes := runIncTrajectory(t, metric, workers, true, Params{})
			compareTrajectories(t, fmt.Sprintf("%v workers=%d", metric, workers),
				wantBytes, wantErrs, wantRes, gotBytes, gotErrs, gotRes)
		}
	}
}

// TestIncrementalBitIdenticalWithReverts forces the negative-set guard
// (beta > l_d) to fire by making l_d tiny: reverted rounds rebuild a
// different graph than the multi-LAC apply, and the cache rebase must
// follow the rebuild that actually produced the next round's base.
func TestIncrementalBitIdenticalWithReverts(t *testing.T) {
	params := Params{Seed: 7, MaxRounds: 30, LD: -0.5}
	wantBytes, wantErrs, wantRes := runIncTrajectory(t, errmetric.ER, 1, false, params)
	reverts := 0
	for _, r := range wantRes.Rounds {
		if r.Reverted {
			reverts++
		}
	}
	if reverts == 0 {
		t.Fatal("LD=-0.5 produced no reverted rounds; the test exercises nothing")
	}
	for _, workers := range []int{1, 4} {
		gotBytes, gotErrs, gotRes := runIncTrajectory(t, errmetric.ER, workers, true, params)
		compareTrajectories(t, fmt.Sprintf("reverts workers=%d", workers),
			wantBytes, wantErrs, wantRes, gotBytes, gotErrs, gotRes)
	}
}

// TestIncrementalBitIdenticalFuzz runs the identity check over seeded
// random circuits (different structure than the arithmetic blocks:
// irregular fanout, XOR-heavy cones).
func TestIncrementalBitIdenticalFuzz(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := circuits.RandomLogic("fz", 10, 6, 220, seed)
		run := func(incremental bool) ([]byte, []float64, *Result) {
			res := Run(g, errmetric.MHD, 0.05, Options{
				NumPatterns: 512,
				Workers:     2,
				Incremental: incremental,
				Params:      Params{Seed: seed, MaxRounds: 20},
			})
			var buf bytes.Buffer
			if err := aiger.WriteASCII(&buf, res.Final); err != nil {
				t.Fatal(err)
			}
			errs := make([]float64, len(res.Rounds))
			for i, r := range res.Rounds {
				errs[i] = r.Error
			}
			return buf.Bytes(), errs, res
		}
		wb, we, wr := run(false)
		gb, ge, gr := run(true)
		compareTrajectories(t, fmt.Sprintf("fuzz seed %d", seed), wb, we, wr, gb, ge, gr)
	}
}

// TestIncrementalCheckpointResume covers the checkpoint x parallel x
// incremental interaction: a run checkpointed mid-flight and resumed
// (with Workers > 1 and Incremental on, so the resumed run's first
// round is a full generation over a BLIF-renumbered graph) must land
// on the same final circuit as an uninterrupted run.
func TestIncrementalCheckpointResume(t *testing.T) {
	g := circuits.ArrayMult(5)
	const bound = 0.4
	opts := func() Options {
		return Options{
			NumPatterns: 2048,
			Workers:     4,
			Incremental: true,
			Params:      Params{Seed: 7, MaxRounds: 30},
		}
	}

	// Uninterrupted reference run.
	want := Run(g, errmetric.ER, bound, opts())
	if len(want.Rounds) < 6 {
		t.Fatalf("reference run too short (%d rounds) to interrupt meaningfully", len(want.Rounds))
	}

	// Interrupted run: checkpoint every round, cancel after round 3.
	dir := t.TempDir()
	w, err := checkpoint.NewWriter(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	opt := opts()
	opt.Progress = func(rs RoundStats) {
		snap := &checkpoint.Snapshot{Round: rs.Round, Error: rs.Error, Seed: 7, HasSeed: true}
		if err := snap.SetGraph(rs.Graph); err != nil {
			t.Error(err)
			return
		}
		if err := w.Save(snap); err != nil {
			t.Error(err)
			return
		}
		if rs.Round == 3 {
			cancel()
		}
	}
	interrupted := RunCtx(ctx, g, errmetric.ER, bound, opt)
	if interrupted.StopReason != runctl.Cancelled {
		t.Fatalf("interrupted run stopped with %v, want Cancelled", interrupted.StopReason)
	}

	// Resume from the latest snapshot.
	snap, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := snap.Graph()
	if err != nil {
		t.Fatal(err)
	}
	ropt := opts()
	ropt.Start = &StartState{Graph: sg, Round: snap.Round + 1}
	got := Run(g, errmetric.ER, bound, ropt)

	var wb, gb bytes.Buffer
	if err := aiger.WriteASCII(&wb, want.Final); err != nil {
		t.Fatal(err)
	}
	if err := aiger.WriteASCII(&gb, got.Final); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) || got.Error != want.Error || got.StopReason != want.StopReason {
		t.Fatalf("resumed run diverged: (%g, %v) vs (%g, %v)",
			got.Error, got.StopReason, want.Error, want.StopReason)
	}
	// The resumed rounds must replay the uninterrupted tail exactly.
	tail := want.Rounds[snap.Round+1:]
	if len(got.Rounds) != len(tail) {
		t.Fatalf("resumed run ran %d rounds, want %d", len(got.Rounds), len(tail))
	}
	for i := range tail {
		if got.Rounds[i].Error != tail[i].Error || got.Rounds[i].Round != tail[i].Round {
			t.Fatalf("resumed round %d: (%d, %g) vs (%d, %g)", i,
				got.Rounds[i].Round, got.Rounds[i].Error, tail[i].Round, tail[i].Error)
		}
	}
}
