package core

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"accals/internal/circuits"
	"accals/internal/dispatch"
	"accals/internal/errmetric"
	"accals/internal/obs"
)

// startBenchEvaluators launches n in-process dispatch servers on
// loopback and returns their addresses. The servers are torn down at
// test/benchmark cleanup.
func startBenchEvaluators(tb testing.TB, n, workers int) []string {
	tb.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		srv := &dispatch.Server{Workers: workers}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ctx, ln)
		}()
		tb.Cleanup(func() {
			cancel()
			<-done
		})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// benchDistRun runs the BenchmarkRoundParallel workload — ArrayMult(6),
// ER bound 0.02, 8192 patterns, 8 rounds, so the rounds/s numbers are
// directly comparable to that benchmark's — with an optional
// evaluator pool layered on.
func benchDistRun(tb testing.TB, workers int, addrs []string, rec *obs.Recorder) *Result {
	g := circuits.ArrayMult(6)
	opt := Options{
		NumPatterns: 1 << 13,
		Workers:     workers,
		Recorder:    rec,
		Params:      Params{Seed: 5, MaxRounds: 8},
	}
	if len(addrs) > 0 {
		pool := dispatch.NewPool(addrs, errmetric.ER, g, opt.Patterns(g), nil)
		defer pool.Close()
		if n := pool.Evaluators(); n != len(addrs) {
			tb.Fatalf("pool connected %d of %d evaluators", n, len(addrs))
		}
		opt.Evaluators = pool
	}
	return Run(g, errmetric.ER, 0.02, opt)
}

// BenchmarkRoundDistributed measures whole-flow round throughput with
// remote evaluators layered onto the workers=4 BenchmarkRoundParallel
// workload.
func BenchmarkRoundDistributed(b *testing.B) {
	modes := []struct {
		name       string
		evaluators int
	}{
		{"baseline", 0},
		{"evaluators=4", 4},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			var addrs []string
			if m.evaluators > 0 {
				addrs = startBenchEvaluators(b, m.evaluators, 1)
			}
			rounds := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := benchDistRun(b, 4, addrs, nil)
				rounds += len(res.Rounds)
			}
			b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
		})
	}
}

// TestDistributedBenchReport measures the distributed scaling once per
// mode and writes a machine-readable report to $BENCH_DISTRIBUTED_OUT.
// Skipped when the variable is unset so normal test runs stay fast.
func TestDistributedBenchReport(t *testing.T) {
	out := os.Getenv("BENCH_DISTRIBUTED_OUT")
	if out == "" {
		t.Skip("BENCH_DISTRIBUTED_OUT not set")
	}
	// Warm-up so no mode pays first-use costs.
	benchDistRun(t, 4, nil, nil)

	const trials = 3
	measure := func(addrs []string) (roundsPerSec float64, res *Result, sum obs.Summary) {
		roundsPerSec = medianOf(trials, func() float64 {
			rec := obs.NewRecorder()
			t0 := time.Now()
			res = benchDistRun(t, 4, addrs, rec)
			dt := time.Since(t0).Seconds()
			sum = rec.Summary()
			return float64(len(res.Rounds)) / dt
		})
		return
	}

	report := map[string]any{}
	baseRPS, baseRes, _ := measure(nil)
	report["baseline_workers=4"] = map[string]any{"rounds_per_sec": baseRPS, "rounds": len(baseRes.Rounds)}

	addrs := startBenchEvaluators(t, 4, 1)
	distRPS, distRes, distSum := measure(addrs)
	report["evaluators=4"] = map[string]any{
		"rounds_per_sec":          distRPS,
		"speedup":                 distRPS / baseRPS,
		"dispatch_remote_batches": distSum.DispatchRemoteBatches,
		"dispatch_failovers":      distSum.DispatchFailovers,
		"dispatch_tx_bytes":       distSum.DispatchTxBytes,
		"dispatch_rx_bytes":       distSum.DispatchRxBytes,
	}
	if distSum.DispatchRemoteBatches == 0 {
		t.Error("distributed run evaluated no batch remotely; the pool never engaged")
	}
	if len(distRes.Rounds) != len(baseRes.Rounds) || distRes.Error != baseRes.Error {
		t.Errorf("distributed run diverged: %d rounds err %g vs %d rounds err %g",
			len(distRes.Rounds), distRes.Error, len(baseRes.Rounds), baseRes.Error)
	}

	doc := map[string]any{
		"note": "Distributed candidate evaluation layered on the BenchmarkRoundParallel workload (ArrayMult(6), ER bound 0.02, 8192 patterns, 8 rounds, workers=4) so rounds/s is directly comparable to BenchmarkRoundParallel. baseline = plain workers=4; evaluators=4 adds four in-process dispatch servers. On a host with few CPUs the loopback RPCs only add contention and wire overhead, so speedups below 1 measure the overhead bound there. Both modes are bit-identical in output; only timing differs.",
		"host": map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		"modes": report,
	}
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(body, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
