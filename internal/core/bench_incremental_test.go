package core

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/obs"
	"accals/internal/simulate"
)

// benchScenario is one off/on comparison point. The incremental engine
// pays off in proportion to how local each round's change is, so the
// report measures two regimes on the bundled benchmark circuits: the
// default multi-LAC flow, and a single-LAC-per-round flow (LE forced
// tiny) — the "small applied set" regime where most of the circuit
// stays clean between rounds.
type benchScenario struct {
	name    string
	circuit string
	le      float64
}

var benchScenarios = []benchScenario{
	{"mtp8_default", "mtp8", 0},
	{"mtp8_single_lac", "mtp8", 1e-12},
	{"alu4_single_lac", "alu4", 1e-12},
}

// benchIncRun drives a fixed multi-round synthesis with a recorder and
// returns its summary.
func benchIncRun(sc benchScenario, incremental bool) obs.Summary {
	g, err := circuits.ByName(sc.circuit)
	if err != nil {
		panic(err)
	}
	rec := obs.NewRecorder()
	Run(g, errmetric.ER, 0.05, Options{
		NumPatterns: 2048,
		Recorder:    rec,
		Incremental: incremental,
		Params:      Params{Seed: 7, MaxRounds: 30, LE: sc.le},
	})
	return rec.Summary()
}

// genSelectSeconds is the per-round cost the round engine optimises:
// LAC generation plus selection (conflict graph + MIS), with the
// dirty-cone computation counted against the incremental side.
func genSelectSeconds(s obs.Summary) float64 {
	t := 0.0
	for _, ph := range []string{"generate", "conflict-graph", "mis", "dirty-cone"} {
		t += s.Phases[ph].Seconds
	}
	return t
}

// BenchmarkRoundIncremental compares full synthesis runs with the
// incremental round engine off and on; the custom metric isolates the
// generate+select time the candidate cache is supposed to remove.
func BenchmarkRoundIncremental(b *testing.B) {
	for _, sc := range benchScenarios {
		for _, mode := range []struct {
			name string
			on   bool
		}{{"off", false}, {"on", true}} {
			b.Run(sc.name+"/"+mode.name, func(b *testing.B) {
				var genSel float64
				var rounds int64
				for i := 0; i < b.N; i++ {
					s := benchIncRun(sc, mode.on)
					genSel += genSelectSeconds(s)
					rounds += s.Rounds
				}
				if rounds > 0 {
					b.ReportMetric(genSel/float64(rounds)*1e3, "genselect-ms/round")
				}
			})
		}
	}
}

// TestIncrementalBenchReport measures the off/on comparison once per
// scenario and writes a machine-readable report to
// $BENCH_INCREMENTAL_OUT (the CI bench-smoke step publishes it as
// BENCH_incremental.json). Skipped when the variable is unset so
// normal test runs stay fast.
func TestIncrementalBenchReport(t *testing.T) {
	out := os.Getenv("BENCH_INCREMENTAL_OUT")
	if out == "" {
		t.Skip("BENCH_INCREMENTAL_OUT not set")
	}
	// Warm-up so neither side pays first-use costs (page faults, lazily
	// built pattern tables).
	benchIncRun(benchScenarios[0], true)

	const trials = 5
	scenarios := map[string]any{}
	for _, sc := range benchScenarios {
		// Median of several trials per side: the runs are a few ms each,
		// well inside scheduler noise on shared CI hosts.
		offSec := medianOf(trials, func() float64 { return genSelectSeconds(benchIncRun(sc, false)) })
		onSum := benchIncRun(sc, true)
		onSec := medianOf(trials-1, func() float64 { return genSelectSeconds(benchIncRun(sc, true)) })
		speedup := 0.0
		if onSec > 0 {
			speedup = offSec / onSec
		}
		hitRate := 0.0
		if n := onSum.LACCacheHits + onSum.LACCacheMisses; n > 0 {
			hitRate = float64(onSum.LACCacheHits) / float64(n)
		}
		scenarios[sc.name] = map[string]any{
			"rounds":                 onSum.Rounds,
			"off_gen_select_seconds": offSec,
			"on_gen_select_seconds":  onSec,
			"gen_select_speedup":     speedup,
			"lac_cache_hits":         onSum.LACCacheHits,
			"lac_cache_misses":       onSum.LACCacheMisses,
			"cache_hit_rate":         hitRate,
			"on_dirty_cone_seconds":  onSum.Phases["dirty-cone"].Seconds,
		}
		t.Logf("%s: off %.4fs, on %.4fs (%.2fx); cache %d hits / %d misses (%.0f%%)",
			sc.name, offSec, onSec, speedup, onSum.LACCacheHits, onSum.LACCacheMisses, hitRate*100)
		if onSum.LACCacheHits == 0 {
			t.Errorf("%s: incremental run recorded no cache hits; the engine never reused anything", sc.name)
		}
	}
	// Round-level measurement: one candidate generation after a
	// single-LAC Apply, isolated from the rest of the flow. The win
	// tracks the applied LAC's dirty cone: "shallow" applies the
	// highest-id candidate (near the POs, small cone), "wide" the
	// lowest (near the PIs, cone spans the circuit).
	rounds := map[string]any{}
	for _, circuit := range []string{"mtp8", "alu4"} {
		for _, pick := range []string{"wide", "shallow"} {
			off, on, dirtyFrac := measureSingleRound(t, circuit, pick, trials)
			speedup := 0.0
			if on > 0 {
				speedup = off.Seconds() / on.Seconds()
			}
			rounds[circuit+"_"+pick] = map[string]any{
				"scratch_ms":     off.Seconds() * 1e3,
				"incremental_ms": on.Seconds() * 1e3,
				"speedup":        speedup,
				"regen_fraction": dirtyFrac,
			}
			t.Logf("round %s/%s: scratch %v, incremental %v (%.2fx, %.0f%% regenerated)",
				circuit, pick, off, on, speedup, dirtyFrac*100)
		}
	}

	report := map[string]any{
		"note": "Incremental round engine. flow_scenarios: generate+select seconds (generate, conflict-graph, mis, dirty-cone phases; median of repeated full runs) with the engine off vs on — ER bound 0.05, 2048 patterns, seed 7, max 30 rounds; *_single_lac forces one applied LAC per round (LE=1e-12), *_default is the paper's multi-LAC flow. single_round: one post-Apply candidate generation in isolation; the speedup tracks the applied LAC's dirty cone (shallow cone = small applied-set regime, wide cone = near-total regeneration, where the engine is designed to break even). Off and on are bit-identical in output; only timing differs.",
		"host": map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		"flow_scenarios": scenarios,
		"single_round":   rounds,
	}
	body, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(body, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// measureSingleRound times one round's candidate generation after a
// single-LAC Apply, from scratch versus incrementally (median of
// trials), and reports the fraction of targets regenerated on the
// incremental path.
func measureSingleRound(t *testing.T, circuit, pick string, trials int) (off, on time.Duration, regenFrac float64) {
	t.Helper()
	g, err := circuits.ByName(circuit)
	if err != nil {
		t.Fatal(err)
	}
	pats := simulate.NewPatterns(g.NumPIs(), 2048, 7)
	res := simulate.MustRun(g, pats)
	cfg := lac.Config{}
	full := lac.Generate(g, res, cfg)
	applied := full[:1]
	if pick == "shallow" {
		applied = full[len(full)-1:]
	}
	ng, m := lac.ApplyMapped(g, applied)
	d := aig.NewDelta(g, ng, m, lac.Targets(applied))
	res2 := simulate.MustRun(ng, pats)

	off = time.Duration(int64(medianOf(trials, func() float64 {
		t0 := time.Now()
		lac.Generate(ng, res2, cfg)
		return float64(time.Since(t0))
	})))
	var hits, misses int64
	on = time.Duration(int64(medianOf(trials, func() float64 {
		gen := lac.NewGenerator(1)
		rec := obs.NewRecorder()
		gen.Generate(g, res, cfg, nil)
		gen.NoteApply(d, applied)
		t0 := time.Now()
		gen.Generate(ng, res2, cfg, rec)
		dt := float64(time.Since(t0))
		s := rec.Summary()
		hits, misses = s.LACCacheHits, s.LACCacheMisses
		return dt
	})))
	if n := hits + misses; n > 0 {
		regenFrac = float64(misses) / float64(n)
	}
	return off, on, regenFrac
}

// medianOf runs f n times and returns the median sample.
func medianOf(n int, f func() float64) float64 {
	if n < 1 {
		n = 1
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f()
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs[n/2]
}
