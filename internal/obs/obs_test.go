package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	// Every method must be callable on a nil recorder.
	r.RunMeta(RunMeta{Method: "accals", Circuit: "mtp8", Metric: "er", Bound: 0.05, InitialAnds: 100})
	r.BeginRound(1)
	sp := r.StartPhase(1, PhaseSimulate)
	if d := sp.End(); d != 0 {
		t.Fatalf("nil span duration = %v, want 0", d)
	}
	r.StartSpan(PhaseEstimate).End()
	r.CountCandidates(10)
	r.CountSimPatterns(1024)
	r.AddSATConflicts(5)
	r.CountEvaluation()
	r.ObserveShards(PhaseSimulate, time.Millisecond, []time.Duration{time.Millisecond})
	r.Round(RoundEvent{Round: 1, Candidates: 10, GuardSingle: true, Error: 0.01, NumAnds: 90})
	r.AddTracer(nil)
	r.AddSink(nil)
	r.Finish(RunFinish{StopReason: "bounded"})
	if s := r.Status(); s.Running {
		t.Fatal("nil recorder status should be zero")
	}
	if reg := r.Registry(); reg != nil {
		t.Fatal("nil recorder registry should be nil")
	}
	if s := r.Summary(); s.Rounds != 0 {
		t.Fatal("nil recorder summary should be zero")
	}
}

func TestPhaseNames(t *testing.T) {
	want := []string{"simulate", "generate", "estimate", "conflict-graph",
		"mis", "apply", "measure", "revert", "cec", "round", "dirty-cone"}
	ps := Phases()
	if len(ps) != len(want) {
		t.Fatalf("got %d phases, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.String() != want[i] {
			t.Errorf("phase %d = %q, want %q", i, p, want[i])
		}
	}
	if Phase(200).String() != "unknown" {
		t.Error("out-of-range phase should stringify as unknown")
	}
}

// eventLog is a Sink that keeps what it receives, along with the
// recorder's round count at the moment each round arrived.
type eventLog struct {
	r      *Recorder
	metas  []RunMeta
	rounds []RoundEvent
	seen   []int64 // Summary().Rounds as each round arrived
	fin    []RunFinish
}

func (l *eventLog) RunMeta(m RunMeta) { l.metas = append(l.metas, m) }
func (l *eventLog) Round(ev RoundEvent) {
	l.rounds = append(l.rounds, ev)
	l.seen = append(l.seen, l.r.Summary().Rounds)
}
func (l *eventLog) Finish(f RunFinish) { l.fin = append(l.fin, f) }

// TestRecorderRoundLifecycle drives a recorder through one run's events
// and checks every counter, gauge and status field it derives from
// them, and that the events reach the attached sinks unchanged.
func TestRecorderRoundLifecycle(t *testing.T) {
	r := NewRecorder()
	log := &eventLog{r: r}
	r.AddSink(log)
	r.RunMeta(RunMeta{Method: "accals", Circuit: "mtp8", Metric: "er", Bound: 0.05, Workers: 2, InitialAnds: 337})
	lo, hi := 0.001, 0.002
	rounds := []RoundEvent{
		// A duel the independent set won.
		{Round: 0, Candidates: 50, Multi: true, IndpSize: 4, RandSize: 3, PickedIndp: true,
			DuelIndpErr: &lo, DuelRandErr: &hi, Error: 0.001, NumAnds: 330, Applied: make([]AppliedLAC, 4)},
		// The single-LAC fallback near the bound.
		{Round: 1, Candidates: 40, GuardSingle: true, Error: 0.002, NumAnds: 329, NoProgress: 1,
			Applied: make([]AppliedLAC, 1)},
		// A duel the random set won, then reverted: the revert undid
		// the picked random set of 3 and kept the single best LAC.
		{Round: 2, Candidates: 30, Multi: true, IndpSize: 5, RandSize: 3,
			DuelIndpErr: &hi, DuelRandErr: &lo, Reverted: true, Error: 0.003, NumAnds: 327, NoProgress: 2,
			Applied: make([]AppliedLAC, 1)},
	}
	for _, ev := range rounds {
		r.BeginRound(ev.Round)
		r.StartSpan(PhaseSimulate).End()
		r.Round(ev)
	}

	s := r.Status()
	if !s.Running {
		t.Fatal("run should be live")
	}
	if s.Round != 2 || s.Error != 0.003 || s.NumAnds != 327 || s.LACsApplied != 6 || s.NoProgress != 2 {
		t.Fatalf("status = %+v", s)
	}
	if s.GuardSingle != 1 || s.GuardRevert != 1 || s.DuelIndp != 1 || s.DuelRandom != 1 {
		t.Fatalf("status tallies = %+v", s)
	}
	if s.Method != "accals" || s.Circuit != "mtp8" || s.Metric != "er" || s.Bound != 0.05 ||
		s.Workers != 2 || s.InitialAnds != 337 {
		t.Fatalf("run info = %+v", s)
	}

	r.Finish(RunFinish{StopReason: "bounded", Rounds: 3})
	s = r.Status()
	if s.Running || s.StopReason != "bounded" {
		t.Fatalf("finished status = %+v", s)
	}

	sum := r.Summary()
	want := Summary{Rounds: 3, LACsEvaluated: 120, LACsApplied: 6, LACsReverted: 3,
		GuardSingleLAC: 1, GuardNegativeRevert: 1, DuelIndpWins: 1, DuelRandomWins: 1,
		DuelIndpWinRate: 0.5, Workers: 2}
	got := sum
	got.Phases, got.TraceID = nil, ""
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("summary = %+v, want %+v", got, want)
	}
	if ph, ok := sum.Phases["simulate"]; !ok || ph.Count != 3 {
		t.Fatalf("summary phases = %+v", sum.Phases)
	}

	var sb strings.Builder
	if err := r.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"accals_round 2", "accals_error 0.003", "accals_and_count 327",
		"accals_no_progress_rounds 2", "accals_workers 2", `accals_lacs_total{kind="reverted"} 3`} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("metrics missing %q", line)
		}
	}

	// A resumed run's recorder restores the counters, and its status
	// tallies continue from them.
	resumed := NewRecorder()
	resumed.Registry().RestoreCounters(r.Registry().CounterSnapshot())
	resumed.Round(RoundEvent{Round: 3, Applied: make([]AppliedLAC, 2)})
	if s := resumed.Status(); s.LACsApplied != 8 || s.GuardSingle != 1 || s.GuardRevert != 1 {
		t.Fatalf("resumed status tallies = %+v, want 8 applied LACs and one of each guard", s)
	}

	// Each event reached the sink once, after the recorder counted it.
	if len(log.metas) != 1 || len(log.rounds) != 3 || len(log.fin) != 1 {
		t.Fatalf("sink saw %d metas, %d rounds, %d finishes", len(log.metas), len(log.rounds), len(log.fin))
	}
	if !reflect.DeepEqual(log.rounds, rounds) || log.fin[0].Rounds != 3 {
		t.Fatal("sink events differ from the reported ones")
	}
	if !reflect.DeepEqual(log.seen, []int64{1, 2, 3}) {
		t.Fatalf("rounds counted when the sink saw each round = %v, want [1 2 3]", log.seen)
	}
}

func TestWorkersAndShardObservations(t *testing.T) {
	r := NewRecorder()
	r.RunMeta(RunMeta{Workers: 4})
	if s := r.Status(); s.Workers != 4 {
		t.Fatalf("status workers = %d, want 4", s.Workers)
	}

	// A region where 2 shards were each busy half the elapsed time has
	// utilization 0.5; one with every shard fully busy has 1.0.
	r.ObserveShards(PhaseSimulate, 10*time.Millisecond,
		[]time.Duration{5 * time.Millisecond, 5 * time.Millisecond})
	r.ObserveShards(PhaseEstimate, 10*time.Millisecond,
		[]time.Duration{10 * time.Millisecond, 10 * time.Millisecond})
	// Empty regions and zero elapsed must be ignored, not divide by zero.
	r.ObserveShards(PhaseSimulate, time.Millisecond, nil)
	r.ObserveShards(PhaseSimulate, 0, []time.Duration{time.Millisecond})

	sum := r.Summary()
	if sum.Workers != 4 {
		t.Fatalf("summary workers = %d, want 4", sum.Workers)
	}
	if sum.WorkerUtilization != 0.75 {
		t.Fatalf("mean utilization = %g, want 0.75", sum.WorkerUtilization)
	}

	var sb strings.Builder
	if err := r.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "accals_workers 4") {
		t.Fatalf("workers gauge missing:\n%s", out)
	}
	// 2 + 2 + 1 shard durations were observed (zero-elapsed regions
	// still record per-shard times, only utilization is skipped).
	if !strings.Contains(out, `accals_shard_duration_seconds_count{phase="simulate"} 3`) {
		t.Fatalf("simulate shard durations missing:\n%s", out)
	}
	if !strings.Contains(out, `accals_worker_utilization_count{phase="estimate"} 1`) {
		t.Fatalf("estimate utilization missing:\n%s", out)
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := NewRecorder()
	sp := r.StartPhase(3, PhaseMIS)
	time.Sleep(2 * time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Fatalf("span duration = %v, want >= 1ms", d)
	}
	var sb strings.Builder
	if err := r.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `accals_phase_duration_seconds_count{phase="mis"} 1`) {
		t.Fatalf("mis phase not recorded:\n%s", sb.String())
	}
}
