package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"accals/internal/aig"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/lac"
	"accals/internal/ledger"
	"accals/internal/maxerr"
	"accals/internal/obs"
	"accals/internal/simulate"
)

// layerUnits lists every per-layer metric with its unit. The in-loop
// figures come from the traced synthesis's recorder, ledger and trace;
// the replay figures come from replaying its rounds (see replay).
var layerUnits = map[string]string{
	// In-loop, from the phase spans and counters of the traced run.
	"simulate.busy_s":            "s",
	"simulate.synth_share":       "ratio",
	"lac.generate_s":             "s",
	"lac.dirty_cone_s":           "s",
	"lac.candidates":             "count",
	"lac.cache_hit_rate":         "ratio",
	"lac.apply_s":                "s",
	"lac.synth_share":            "ratio",
	"estimator.estimate_s":       "s",
	"estimator.measure_s":        "s",
	"estimator.synth_share":      "ratio",
	"core.conflict_graph_s":      "s",
	"core.conflict_edges":        "count",
	"core.mis_s":                 "s",
	"core.infl_pairs":            "count",
	"core.us_per_infl_pair":      "us",
	"core.mis_size":              "count",
	"core.selection_synth_share": "ratio",
	"core.revert_rate":           "ratio",
	"core.duel_indp_win_rate":    "ratio",
	"maxerr.certify_s":           "s",
	"maxerr.synth_share":         "ratio",
	"maxerr.certified_rate":      "ratio",
	"sat.conflicts":              "count",
	"sat.conflicts_per_s":        "1/s",
	"par.worker_utilization":     "ratio",
	"obs.unattributed_share":     "ratio",
	"obs.trace_overhead":         "ratio",
	// Replayed, with the benchmark's own timing around each call.
	"simulate.ns_per_node_word":   "ns",
	"lac.full_generate_s":         "s",
	"lac.incremental_generate_s":  "s",
	"estimator.us_per_cand":       "us",
	"estimator.allocs_per_cand":   "count",
	"errmetric.score_us_per_cand": "us",
	"errmetric.allocs_per_cand":   "count",
	"lac.replay_apply_s":          "s",
	"maxerr.replay_certify_s":     "s",
	"obs.replay_fidelity":         "ratio",
}

// tracedSynthesis is one synthesis run with the recorder, a JSONL
// tracer and a ledger sink attached, plus what they recorded.
type tracedSynthesis struct {
	synthesis
	summary obs.Summary
	rounds  []obs.RoundEvent
	events  []traceEvent
	// graphs holds the circuit each round produced, in round order;
	// round r+1 starts from graphs[r].
	graphs []*aig.Graph
}

// traceEvent is one decoded JSONL span of obs.Tracer.
type traceEvent struct {
	TUS   int64  `json:"t_us"`
	DurUS int64  `json:"dur_us"`
	Phase string `json:"phase"`
	Round int    `json:"round"`
}

// synthesizeTraced runs one instrumented synthesis of the workload.
func synthesizeTraced(ctx context.Context, w workload, in *inputs, maxRounds int) (*tracedSynthesis, error) {
	rec := obs.NewRecorder()
	var traceBuf, ledgerBuf bytes.Buffer
	tracer := obs.NewTracer(&traceBuf, obs.TraceJSONL)
	rec.AddTracer(tracer)
	lw := ledger.NewWriter(&ledgerBuf)
	rec.AddSink(lw)

	ts := &tracedSynthesis{}
	opt := w.options(maxRounds)
	opt.Recorder = rec
	opt.Progress = func(rs core.RoundStats) { ts.graphs = append(ts.graphs, rs.Graph) }
	ts.synthesis = synthesize(ctx, w, in, opt)
	if err := tracer.Close(); err != nil {
		return nil, err
	}
	if err := lw.Err(); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	ts.summary = rec.Summary()

	events, err := ledger.Decode(&ledgerBuf)
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		if ev.Round != nil {
			ts.rounds = append(ts.rounds, *ev.Round)
		}
	}
	if len(ts.rounds) != len(ts.graphs) || len(ts.res.Rounds) != len(ts.graphs) {
		return nil, fmt.Errorf("ledger has %d rounds and the result %d, but %d round circuits were reported",
			len(ts.rounds), len(ts.res.Rounds), len(ts.graphs))
	}
	dec := json.NewDecoder(&traceBuf)
	for {
		var ev traceEvent
		if err := dec.Decode(&ev); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		ts.events = append(ts.events, ev)
	}
	return ts, nil
}

// layerMetrics derives the in-loop per-layer metrics of one traced
// synthesis. Shares are of the traced synthesis's wall-clock.
func (ts *tracedSynthesis) layerMetrics() map[string]float64 {
	s := ts.summary
	ph := func(name string) float64 { return s.Phases[name].Seconds }
	var edges, pairs, misSize, multi, reverted int
	for _, r := range ts.rounds {
		edges += r.ConflictEdges
		pairs += r.InflPairs
		misSize += r.MISSize
		if r.Multi {
			multi++
			if r.Reverted {
				reverted++
			}
		}
	}
	certs := s.CertCertified + s.CertRefuted + s.CertBudget
	return map[string]float64{
		"simulate.busy_s":            ph("simulate"),
		"simulate.synth_share":       ph("simulate") / ts.wall,
		"lac.generate_s":             ph("generate"),
		"lac.dirty_cone_s":           ph("dirty-cone"),
		"lac.candidates":             float64(s.LACsEvaluated),
		"lac.cache_hit_rate":         ratio(float64(s.LACCacheHits), float64(s.LACCacheHits+s.LACCacheMisses)),
		"lac.apply_s":                ph("apply"),
		"lac.synth_share":            (ph("generate") + ph("apply")) / ts.wall,
		"estimator.estimate_s":       ph("estimate"),
		"estimator.measure_s":        ph("measure"),
		"estimator.synth_share":      ph("estimate") / ts.wall,
		"core.conflict_graph_s":      ph("conflict-graph"),
		"core.conflict_edges":        float64(edges),
		"core.mis_s":                 ph("mis"),
		"core.infl_pairs":            float64(pairs),
		"core.us_per_infl_pair":      ratio(ph("mis")*1e6, float64(pairs)),
		"core.mis_size":              float64(misSize),
		"core.selection_synth_share": (ph("conflict-graph") + ph("mis")) / ts.wall,
		"core.revert_rate":           ratio(float64(reverted), float64(multi)),
		"core.duel_indp_win_rate":    s.DuelIndpWinRate,
		"maxerr.certify_s":           ph("cec"),
		"maxerr.synth_share":         ph("cec") / ts.wall,
		"maxerr.certified_rate":      ratio(float64(s.CertCertified), float64(certs)),
		"sat.conflicts":              float64(s.SATConflicts),
		"sat.conflicts_per_s":        ratio(float64(s.SATConflicts), ph("cec")),
		"par.worker_utilization":     s.WorkerUtilization,
		"obs.unattributed_share":     unattributed(ts.events, ts.wall),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unattributed is the share of a synthesis's wall-clock (seconds) that
// no span other than the whole-round span covers.
func unattributed(events []traceEvent, wall float64) float64 {
	type span struct{ lo, hi int64 }
	var spans []span
	for _, e := range events {
		if e.Phase != obs.PhaseRound.String() {
			spans = append(spans, span{e.TUS, e.TUS + e.DurUS})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	var covered, end int64
	for _, s := range spans {
		if s.lo > end {
			end = s.lo
		}
		if s.hi > end {
			covered += s.hi - end
			end = s.hi
		}
	}
	share := 1 - float64(covered)/(wall*1e6)
	if share < 0 {
		return 0
	}
	return share
}

// runTraced measures the per-layer metrics: pairs of one untraced and
// one traced synthesis for --seconds (their wall-clock ratio is the
// tracing overhead), then a replay of the last traced synthesis.
func runTraced(ctx context.Context, cfg config, out io.Writer) (outcome, error) {
	w := cfg.workload
	in, err := setup(w)
	if err != nil {
		return outcome{}, err
	}
	chk := newChecker(w)
	o := outcome{}
	record := func(res *core.Result) {
		o.Attempted++
		if errs := chk.check(res); len(errs) > 0 {
			o.Failed++
			for _, e := range errs {
				fmt.Fprintf(out, "check failed: %s\n", e)
			}
		}
	}
	var plain, traced []float64
	var perRun []map[string]float64
	var last *tracedSynthesis
	start := time.Now()
	// As in runUntraced, a pair is started only if it should end within
	// --seconds.
	for len(traced) == 0 || time.Since(start).Seconds()+median(plain)+median(traced) <= cfg.seconds {
		s := synthesize(ctx, w, in, w.options(cfg.maxRounds))
		record(s.res)
		plain = append(plain, s.wall)
		ts, err := synthesizeTraced(ctx, w, in, cfg.maxRounds)
		if err != nil {
			return outcome{}, err
		}
		record(ts.res)
		traced = append(traced, ts.wall)
		perRun = append(perRun, ts.layerMetrics())
		last = ts
	}

	vals := map[string]float64{}
	for name := range perRun[0] {
		xs := make([]float64, len(perRun))
		for i, m := range perRun {
			xs[i] = m[name]
		}
		vals[name] = median(xs)
	}
	vals["obs.trace_overhead"] = median(traced) / median(plain)
	replayed, warnings := replay(w, in, last)
	for _, msg := range warnings {
		fmt.Fprintf(out, "replay: %s\n", msg)
	}
	for name, v := range replayed {
		vals[name] = v
	}

	o.Metrics = make(map[string]metric, len(vals))
	for name, v := range vals {
		o.Metrics[name] = metric{v, layerUnits[name]}
	}
	fmt.Fprintf(out, "traced synth_s median %.6g over %d runs, untraced %.6g\n", median(traced), len(traced), median(plain))
	printMetrics(out, o.Metrics)
	group, share := dominantLayer(vals, median(traced))
	verdict := "as expected"
	if group != w.dominant {
		verdict = "expected " + w.dominant
	}
	fmt.Fprintf(out, "dominant layer: %s, %.1f%% of traced synth_s (%s)\n", group, 100*share, verdict)
	return o, nil
}

// dominantLayer returns the layer group with the largest share of the
// traced synthesis time, given the per-layer metrics.
func dominantLayer(vals map[string]float64, tracedSynth float64) (string, float64) {
	groups := []struct {
		name  string
		share float64
	}{
		{"estimate", vals["estimator.synth_share"]},
		{"select+generate", vals["core.selection_synth_share"] + vals["lac.synth_share"]},
		{"certify", vals["maxerr.synth_share"]},
		{"simulate", vals["simulate.synth_share"]},
		{"measure", vals["estimator.measure_s"] / tracedSynth},
	}
	best := groups[0]
	for _, g := range groups[1:] {
		if g.share > best.share {
			best = g
		}
	}
	return best.name, best.share
}

// scoreSample bounds the candidates scored per replayed round: building
// their flips takes a cone resimulation each, which costs far more
// than the scoring being timed.
const scoreSample = 128

// replay re-runs every recorded round of ts through the layers' public
// functions, timing each call: simulation, full and incremental
// candidate generation, batch estimation, per-candidate metric scoring
// and the apply of the recorded LAC set. The applied set is matched
// back from the ledger (see matchApplied), and the replayed rebuild
// must reproduce the recorded circuit so the incremental generator
// sees the same trajectory as the run; any divergence is returned as a
// warning. Every round circuit the run SAT-certified (MaxED) is
// certified again.
func replay(w workload, in *inputs, ts *tracedSynthesis) (map[string]float64, []string) {
	pats := in.cmp.Patterns()
	runner := simulate.NewRunner(w.workers)
	est := estimator.New(w.workers)
	gen := lac.NewGenerator(w.workers)
	cfg := lac.Config{Workers: w.workers}

	var simT, fullT, incT, estT, scoreT, applyT, certT time.Duration
	var nodeWords, cands, scored, reproduced int
	var estAllocs, scoreAllocs uint64
	var warnings []string
	// The run starts from a clone, which drops dead logic and so can
	// renumber nodes; the replay must see the same node ids.
	g := in.orig.Clone()
	for r, round := range ts.rounds {
		t0 := time.Now()
		res, err := runner.Run(g, pats)
		simT += time.Since(t0)
		if err != nil {
			warnings = append(warnings, fmt.Sprintf("round %d: %v", r, err))
			break
		}
		nodeWords += g.NumNodes() * pats.Words()

		t0 = time.Now()
		full := lac.Generate(g, res, cfg)
		fullT += time.Since(t0)
		t0 = time.Now()
		cs := gen.Generate(g, res, cfg, nil)
		incT += time.Since(t0)
		if len(cs) != len(full) {
			warnings = append(warnings, fmt.Sprintf("round %d: incremental generation gave %d candidates, full %d", r, len(cs), len(full)))
		}

		a0 := mallocs()
		t0 = time.Now()
		est.EstimateAllRec(g, res, in.cmp, cs, nil)
		estT += time.Since(t0)
		estAllocs += mallocs() - a0
		cands += len(cs)

		d, n, allocs := timeScoring(g, res, in.cmp, cs)
		scoreT += d
		scored += n
		scoreAllocs += allocs

		next := ts.graphs[r]
		applied, ok := matchApplied(cs, round.Applied)
		if ok {
			t0 = time.Now()
			gNew, am := lac.ApplyMapped(g, applied)
			applyT += time.Since(t0)
			// next is the Progress snapshot, a Clone of the run's rebuild.
			if ok = sameCircuit(gNew.Clone(), next); ok {
				// Continue from the replayed rebuild itself: the
				// generator's cache is keyed by graph identity.
				gen.NoteApply(aig.NewDelta(g, gNew, am, lac.Targets(applied)), applied)
				next = gNew
				reproduced++
			}
		}
		if !ok {
			warnings = append(warnings, fmt.Sprintf("round %d: no replayed rebuild reproduces the recorded circuit", r))
		}
		if rs := ts.res.Rounds[r]; rs.CertRan {
			t0 = time.Now()
			cert, err := maxerr.Certify(ts.graphs[r], in.orig, uint64(w.bound), core.DefaultCertBudget)
			certT += time.Since(t0)
			if err != nil || cert.Certified != rs.Certified {
				warnings = append(warnings, fmt.Sprintf("round %d: replayed certification disagrees with the run's (certified %v, err %v)", r, rs.Certified, err))
			}
		}
		runner.Release(res)
		g = next
	}
	return map[string]float64{
		"simulate.ns_per_node_word":   ratio(float64(simT.Nanoseconds()), float64(nodeWords)),
		"lac.full_generate_s":         fullT.Seconds(),
		"lac.incremental_generate_s":  incT.Seconds(),
		"estimator.us_per_cand":       ratio(float64(estT.Nanoseconds())/1e3, float64(cands)),
		"estimator.allocs_per_cand":   ratio(float64(estAllocs), float64(cands)),
		"errmetric.score_us_per_cand": ratio(float64(scoreT.Nanoseconds())/1e3, float64(scored)),
		"errmetric.allocs_per_cand":   ratio(float64(scoreAllocs), float64(scored)),
		"lac.replay_apply_s":          applyT.Seconds(),
		"maxerr.replay_certify_s":     certT.Seconds(),
		"obs.replay_fidelity":         ratio(float64(reproduced), float64(len(ts.rounds))),
	}, warnings
}

// timeScoring times the comparator's per-candidate scoring call on an
// evenly spaced sample of cands, with each candidate's output flips
// built by exact cone resimulation. It returns the total scoring time,
// the sample size and the heap allocations of the scoring calls.
func timeScoring(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, cands []*lac.LAC) (time.Duration, int, uint64) {
	if len(cands) == 0 {
		return 0, 0, 0
	}
	basePOs := res.POValues(g)
	step := (len(cands) + scoreSample - 1) / scoreSample
	var flips [][]simulate.Vec
	for i := 0; i < len(cands); i += step {
		flips = append(flips, flipsOf(basePOs, estimator.ResimulateWith(g, res, cands[i])))
	}
	var score func([]simulate.Vec) float64
	switch {
	case cmp.Kind() == errmetric.MaxED:
		base := cmp.NewBaseEval(basePOs)
		score = func(f []simulate.Vec) float64 { return cmp.MaxErrorWithFlips(base, f) }
	case cmp.Kind().IsWordLevel():
		base := cmp.NewBaseEval(basePOs)
		score = func(f []simulate.Vec) float64 { return cmp.ErrorWithFlips(base, f) }
	default:
		// ER and MHD have no per-candidate scoring call in the estimator
		// (it batches them); the comparator's XOR path is the equivalent.
		score = func(f []simulate.Vec) float64 { return cmp.ErrorFromPOsXor(basePOs, f) }
	}
	var sink float64
	a0 := mallocs()
	t0 := time.Now()
	for _, f := range flips {
		sink += score(f)
	}
	d := time.Since(t0)
	allocs := mallocs() - a0
	scoreSink = sink
	return d, len(flips), allocs
}

// scoreSink keeps the timed scoring calls from being optimised away.
var scoreSink float64

// flipsOf returns, per output, the patterns on which after differs from
// base (nil for an output with no difference).
func flipsOf(base, after []simulate.Vec) []simulate.Vec {
	flips := make([]simulate.Vec, len(base))
	for j := range base {
		var f simulate.Vec
		for w := range base[j] {
			if x := base[j][w] ^ after[j][w]; x != 0 {
				if f == nil {
					f = make(simulate.Vec, len(base[j]))
				}
				f[w] = x
			}
		}
		flips[j] = f
	}
	return flips
}

// matchApplied returns the replayed candidates that are the LAC set a
// round applied, in the ledger's order. The ledger names each applied
// LAC by target, gain and estimated error increase, which can tie
// between candidates of one target. The flow applies a subset of the
// conflict-free set it extracts greedily from the candidates sorted by
// ascending error increase, descending gain, then target; replaying
// that greedy over the replayed candidates resolves every tie exactly,
// because the greedy's choices before any position do not depend on
// the candidates after it.
func matchApplied(cands []*lac.LAC, applied []obs.AppliedLAC) ([]*lac.LAC, bool) {
	sorted := append([]*lac.LAC(nil), cands...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.DeltaE != b.DeltaE {
			return a.DeltaE < b.DeltaE
		}
		if a.Gain != b.Gain {
			return a.Gain > b.Gain
		}
		return a.Target < b.Target
	})
	wanted := make(map[int]bool, len(applied))
	for _, a := range applied {
		wanted[a.Target] = true
	}
	picked := make(map[int]*lac.LAC, len(applied))
	targets, sns := map[int]bool{}, map[int]bool{}
	for _, c := range sorted {
		if len(picked) == len(wanted) {
			break
		}
		// Type-1 and Type-2 conflicts with the LACs already selected.
		if targets[c.Target] || sns[c.Target] || readsAny(c, targets) {
			continue
		}
		targets[c.Target] = true
		for _, sn := range c.SNs {
			sns[sn] = true
		}
		if wanted[c.Target] {
			picked[c.Target] = c
		}
	}
	set := make([]*lac.LAC, 0, len(applied))
	for _, a := range applied {
		c := picked[a.Target]
		if c == nil || c.Gain != a.Gain || c.DeltaE != a.DeltaE {
			return nil, false
		}
		set = append(set, c)
	}
	return set, true
}

// sameCircuit reports whether a and b encode to the same AIGER bytes.
func sameCircuit(a, b *aig.Graph) bool {
	da, errA := digest(a)
	db, errB := digest(b)
	return errA == nil && errB == nil && da == db
}

// readsAny reports whether any substitute node of l is in targets.
func readsAny(l *lac.LAC, targets map[int]bool) bool {
	for _, sn := range l.SNs {
		if targets[sn] {
			return true
		}
	}
	return false
}

// mallocs returns the cumulative count of heap objects allocated.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
