package core

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"accals/internal/aiger"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/runctl"
)

// runTrajectory runs the flow at a worker count and returns the final
// circuit's serialized bytes plus every round's measured error.
func runTrajectory(t *testing.T, metric errmetric.Kind, workers int) ([]byte, []float64, *Result) {
	t.Helper()
	g := circuits.ArrayMult(4)
	opt := Options{
		NumPatterns: 1024,
		Workers:     workers,
		Params:      Params{Seed: 7, MaxRounds: 30},
	}
	res := Run(g, metric, 0.03, opt)
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

// TestWorkersBitIdentical asserts the tentpole determinism contract:
// a run with Workers: N produces a bit-identical output circuit and
// identical per-round measured errors to Workers: 1, across metric
// families (bit-level ER, hamming MHD, word-level NMED).
func TestWorkersBitIdentical(t *testing.T) {
	for _, metric := range []errmetric.Kind{errmetric.ER, errmetric.MHD, errmetric.NMED} {
		wantBytes, wantErrs, wantRes := runTrajectory(t, metric, 1)
		if len(wantErrs) < 3 {
			t.Fatalf("%v: only %d rounds ran; trajectory too short to be meaningful", metric, len(wantErrs))
		}
		for _, workers := range []int{2, 4, 8} {
			gotBytes, gotErrs, gotRes := runTrajectory(t, metric, workers)
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%v: final circuit differs between Workers=1 and Workers=%d", metric, workers)
			}
			if len(gotErrs) != len(wantErrs) {
				t.Fatalf("%v Workers=%d: %d rounds vs %d", metric, workers, len(gotErrs), len(wantErrs))
			}
			for i := range wantErrs {
				if gotErrs[i] != wantErrs[i] {
					t.Fatalf("%v Workers=%d round %d: error %g, want %g (must be bit-identical)",
						metric, workers, i, gotErrs[i], wantErrs[i])
				}
			}
			if gotRes.Error != wantRes.Error || gotRes.StopReason != wantRes.StopReason {
				t.Fatalf("%v Workers=%d: result (%g, %v) vs (%g, %v)", metric, workers,
					gotRes.Error, gotRes.StopReason, wantRes.Error, wantRes.StopReason)
			}
		}
	}
}

// TestWorkersBitIdenticalExactMode covers the exact-estimate ablation
// path, which shards across candidates instead of outputs.
func TestWorkersBitIdenticalExactMode(t *testing.T) {
	run := func(workers int) *Result {
		g := circuits.CLA(6)
		return Run(g, errmetric.ER, 0.05, Options{
			NumPatterns:    512,
			Workers:        workers,
			ExactEstimates: true,
			Params:         Params{Seed: 3, MaxRounds: 12},
		})
	}
	want := run(1)
	got := run(4)
	var wb, gb bytes.Buffer
	if err := aiger.WriteASCII(&wb, want.Final); err != nil {
		t.Fatal(err)
	}
	if err := aiger.WriteASCII(&gb, got.Final); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) || got.Error != want.Error {
		t.Fatal("exact-mode trajectories diverge between Workers=1 and Workers=4")
	}
}

// TestParallelCancellation drives the parallel engine into
// cancellation and deadline stops; run under
// -race this exercises the pool's happens-before edges. The result
// must be a valid best-so-far circuit with the matching stop reason.
func TestParallelCancellation(t *testing.T) {
	g := circuits.ArrayMult(5)

	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	res := RunCtx(ctx, g, errmetric.ER, 0.4, Options{
		NumPatterns: 2048,
		Workers:     4,
		Params:      Params{Seed: 1},
		Progress: func(RoundStats) {
			rounds++
			if rounds == 3 {
				cancel()
			}
		},
	})
	if res.StopReason != runctl.Cancelled {
		t.Fatalf("stop reason %v, want Cancelled", res.StopReason)
	}
	if res.Final == nil || res.Error > 0.4 {
		t.Fatalf("cancelled run returned invalid best-so-far: err=%g", res.Error)
	}

	// Deadline that expires mid-run (likely mid-shard on slow hosts).
	res = Run(g, errmetric.ER, 0.4, Options{
		NumPatterns: 2048,
		Workers:     4,
		Params:      Params{Seed: 1},
		MaxRuntime:  5 * time.Millisecond,
	})
	if res.StopReason != runctl.DeadlineExceeded && res.StopReason != runctl.Bounded && res.StopReason != runctl.Stagnated {
		t.Fatalf("deadline run stopped with %v", res.StopReason)
	}
	if res.Final == nil {
		t.Fatal("deadline run returned no circuit")
	}
}

// waitGoroutines polls until the goroutine count drops to the target
// or the deadline expires, returning the final count.
func waitGoroutines(target int, deadline time.Duration) int {
	end := time.Now().Add(deadline)
	n := runtime.NumGoroutine()
	for n > target && time.Now().Before(end) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestNoGoroutineLeftOnCancel: a parallel run stopped by cancellation
// must leave no goroutine behind.
func TestNoGoroutineLeftOnCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	g := circuits.ArrayMult(5)
	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	res := RunCtx(ctx, g, errmetric.ER, 0.4, Options{
		NumPatterns: 2048,
		Workers:     4,
		Incremental: true,
		Params:      Params{Seed: 1},
		Progress: func(RoundStats) {
			rounds++
			if rounds == 3 {
				cancel()
			}
		},
	})
	if res.StopReason != runctl.Cancelled {
		t.Fatalf("stop reason %v, want Cancelled", res.StopReason)
	}
	if n := waitGoroutines(base, 2*time.Second); n > base {
		t.Fatalf("%d goroutines alive after cancelled run, started with %d (goroutine leak)", n, base)
	}
}

// TestNoGoroutineLeftOnPanic: a Progress callback that panics unwinds
// RunWithComparatorCtx past the round loop (the public API recovers
// via runctl.Guard); the unwind must leave no goroutine of the
// parallel engine behind.
func TestNoGoroutineLeftOnPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	g := circuits.ArrayMult(5)
	rounds := 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected the Progress panic to propagate")
			}
		}()
		Run(g, errmetric.ER, 0.4, Options{
			NumPatterns: 2048,
			Workers:     4,
			Params:      Params{Seed: 1},
			Progress: func(RoundStats) {
				rounds++
				if rounds == 2 {
					panic("boom")
				}
			},
		})
	}()
	if rounds != 2 {
		t.Fatalf("panicked after %d rounds, want 2", rounds)
	}
	if n := waitGoroutines(base, 2*time.Second); n > base {
		t.Fatalf("%d goroutines alive after panicking run, started with %d (goroutine leak)", n, base)
	}
}
