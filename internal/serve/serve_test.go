package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"accals/internal/blif"
	"accals/internal/checkpoint"
	"accals/internal/core"
	"accals/internal/faultinject"
)

// smallSpec is a job that synthesises in tens of milliseconds.
func smallSpec(tenant string) JobSpec {
	return JobSpec{
		Tenant:    tenant,
		Circuit:   "alu2",
		Metric:    "er",
		Bound:     0.03,
		Patterns:  512,
		Seed:      7,
		MaxRounds: 4,
	}
}

// waitTerminal polls until the job is terminal or the deadline hits.
func waitTerminal(t *testing.T, m *Manager, id string, timeout time.Duration) *Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, j.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func openManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func closeManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestJobLifecycleDone(t *testing.T) {
	m := openManager(t, Config{MaxRunning: 2})
	defer closeManager(t, m)

	j, err := m.Submit(smallSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued && j.State != StateRunning {
		t.Fatalf("fresh job state %s", j.State)
	}
	fin := waitTerminal(t, m, j.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("state %s (failure %q), want done", fin.State, fin.Failure)
	}
	if fin.StopReason == "" {
		t.Error("terminal job has no stop reason")
	}
	res, err := m.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumAnds <= 0 || res.BLIF == "" {
		t.Fatalf("result incomplete: %+v", res)
	}
	if _, err := blif.Read(strings.NewReader(res.BLIF)); err != nil {
		t.Fatalf("result BLIF does not parse: %v", err)
	}
	if res.Error > j.Spec.Bound {
		t.Fatalf("result error %v exceeds bound %v", res.Error, j.Spec.Bound)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := openManager(t, Config{})
	defer closeManager(t, m)
	for _, spec := range []JobSpec{
		{}, // no circuit
		{Circuit: "alu2", BLIF: ".model m\n.end\n"},                       // both inputs
		{Circuit: "nope", Metric: "er", Bound: 0.05},                      // unknown benchmark
		{Circuit: "alu2", Metric: "zz", Bound: 0.05},                      // bad metric
		{Circuit: "alu2", Metric: "er", Bound: 0},                         // bad bound
		{Circuit: "alu2", Metric: "er", Bound: 2},                         // bad bound
		{Circuit: "alu2", Metric: "er", Bound: 0.05, Method: "x"},         // bad method
		{Circuit: "alu2", Metric: "er", Bound: 0.05, MaxRuntime: "later"}, // bad duration
		{Circuit: "alu2", Metric: "er", Bound: 0.05, Workers: -1},         // bad workers
		{BLIF: "not blif", Metric: "er", Bound: 0.05},                     // unparsable inline circuit
		{Circuit: "alu2", Metric: "maxed", Bound: 0.5},                    // maxed bound must be an integer
		{Circuit: "alu2", Metric: "maxed", Bound: -1},                     // negative maxed bound
		{Circuit: "alu2", Metric: "maxed", Bound: 2, Method: "seals"},     // maxed needs accals
		// A zero-output circuit would NaN-poison the run and hang the
		// job; it must be a 400 at admission instead.
		{BLIF: ".model noout\n.inputs a\n.outputs\n.end\n", Metric: "er", Bound: 0.05},
	} {
		if _, err := m.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Submit(%+v): want ErrBadSpec, got %v", spec, err)
		}
	}
	if got := len(m.List()); got != 0 {
		t.Fatalf("%d jobs accepted from invalid specs", got)
	}
	// maxed with an integer bound and the accals method is a valid spec.
	if err := (&JobSpec{Circuit: "rca8", Metric: "maxed", Bound: 4}).Validate(); err != nil {
		t.Fatalf("valid maxed spec rejected: %v", err)
	}
}

func TestQueueFullAndTenantQuota(t *testing.T) {
	inj := faultinject.New(1)
	// Stall every round so submitted jobs stay running while we probe
	// admission control.
	inj.Set(FaultRoundHang, faultinject.Rule{Prob: 1, Delay: time.Hour})
	m := openManager(t, Config{MaxRunning: 1, MaxQueue: 2, TenantQuota: 2, Inj: inj})

	// One running (tenant a) + two queued (tenants b, c) fill the queue.
	if _, err := m.Submit(smallSpec("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallSpec("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallSpec("c")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallSpec("d")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}

	m2 := openManager(t, Config{MaxRunning: 1, MaxQueue: 100, TenantQuota: 2, Inj: inj})
	if _, err := m2.Submit(smallSpec("t")); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Submit(smallSpec("t")); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Submit(smallSpec("t")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("want ErrQuotaExceeded, got %v", err)
	}
	if _, err := m2.Submit(smallSpec("other")); err != nil {
		t.Fatalf("quota must be per tenant: %v", err)
	}

	// The stalled jobs cannot finish; kill both managers to unblock.
	m.Kill()
	m2.Kill()
}

func TestCancelQueuedAndRunning(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set(FaultRoundHang, faultinject.Rule{Prob: 1, Delay: time.Hour})
	m := openManager(t, Config{MaxRunning: 1, Inj: inj})

	running, err := m.Submit(smallSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit(smallSpec("a"))
	if err != nil {
		t.Fatal(err)
	}

	// Cancelling the queued job is immediate.
	got, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("queued job after cancel: %s", got.State)
	}
	if _, err := m.Result(queued.ID); !errors.Is(err, ErrNotReady) {
		t.Fatalf("never-run cancelled job result: want ErrNotReady, got %v", err)
	}

	// Cancelling the running job interrupts its stalled round (the
	// injected Sleep honours the context) and keeps the best-so-far.
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, running.ID, 30*time.Second)
	if fin.State != StateCancelled {
		t.Fatalf("running job after cancel: %s (failure %q)", fin.State, fin.Failure)
	}
	if _, err := m.Result(running.ID); err != nil {
		t.Fatalf("cancelled job must keep its best-so-far result: %v", err)
	}
	closeManager(t, m)
}

func TestPanicIsolation(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set(FaultJobPanic, faultinject.Rule{Prob: 1, Count: 1, Panic: true})
	m := openManager(t, Config{MaxRunning: 1, Inj: inj})
	defer closeManager(t, m)

	crash, err := m.Submit(smallSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, crash.ID, 30*time.Second)
	if fin.State != StateFailed || fin.FailureKind != "panic" {
		t.Fatalf("panicked job: state %s kind %q, want failed/panic", fin.State, fin.FailureKind)
	}
	if !strings.Contains(fin.Failure, "injected") {
		t.Fatalf("failure message %q lost the panic value", fin.Failure)
	}

	// The manager survived: the next job runs normally.
	ok, err := m.Submit(smallSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, m, ok.ID, 30*time.Second); fin.State != StateDone {
		t.Fatalf("job after panic: %s (failure %q)", fin.State, fin.Failure)
	}
}

func TestWatchdogFailsHungJob(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set(FaultRoundHang, faultinject.Rule{Prob: 1, Count: 1, Delay: time.Hour})
	m := openManager(t, Config{MaxRunning: 1, Watchdog: 200 * time.Millisecond, Inj: inj})
	defer closeManager(t, m)

	j, err := m.Submit(smallSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, j.ID, 30*time.Second)
	if fin.State != StateFailed || fin.FailureKind != "hung" {
		t.Fatalf("hung job: state %s kind %q, want failed/hung", fin.State, fin.FailureKind)
	}
}

func TestJobDeadline(t *testing.T) {
	inj := faultinject.New(1)
	// Every round takes ≥50ms, so a 120ms budget ends the run early
	// with a best-so-far result.
	inj.Set(FaultRoundHang, faultinject.Rule{Prob: 1, Delay: 50 * time.Millisecond})
	m := openManager(t, Config{MaxRunning: 1, Inj: inj})
	defer closeManager(t, m)

	spec := smallSpec("a")
	spec.MaxRounds = 1000
	spec.MaxRuntime = "120ms"
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, j.ID, 30*time.Second)
	if fin.State != StateDone || fin.StopReason != "deadline-exceeded" {
		t.Fatalf("deadline job: state %s stop %q, want done/deadline-exceeded", fin.State, fin.StopReason)
	}
	if _, err := m.Result(j.ID); err != nil {
		t.Fatalf("deadline-exceeded job must keep its best-so-far result: %v", err)
	}
}

func TestSubscribeStreamsAndReplays(t *testing.T) {
	m := openManager(t, Config{MaxRunning: 1})
	defer closeManager(t, m)

	j, err := m.Submit(smallSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	events, stop, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var sawMeta, sawRound, sawFinish, sawTerminal bool
	for ev := range events {
		switch ev.Type {
		case EventMeta:
			sawMeta = true
		case EventRound:
			sawRound = true
			if ev.Round == nil || ev.Round.NumAnds == 0 {
				t.Fatalf("round event missing payload: %+v", ev)
			}
		case EventFinish:
			sawFinish = true
		case EventState:
			if ev.Job != nil && ev.Job.State.Terminal() {
				sawTerminal = true
			}
		}
	}
	if !sawMeta || !sawRound || !sawFinish || !sawTerminal {
		t.Fatalf("stream incomplete: meta=%v round=%v finish=%v terminal=%v",
			sawMeta, sawRound, sawFinish, sawTerminal)
	}

	// A late subscriber to the terminal job replays the history and
	// closes immediately.
	replay, stop2, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stop2()
	n := 0
	for range replay {
		n++
	}
	if n == 0 {
		t.Fatal("late subscriber got no replay")
	}
}

func TestDrainSnapshotsAndRecoverResumesByteIdentically(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(1)
	// Slow rounds so the drain catches the job mid-run.
	inj.Set(FaultRoundHang, faultinject.Rule{Prob: 1, Delay: 30 * time.Millisecond})
	m := openManager(t, Config{Dir: dir, MaxRunning: 1, CheckpointEvery: 1, Inj: inj})

	spec := smallSpec("a")
	spec.MaxRounds = 8
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least one completed round, then drain.
	deadline := time.Now().Add(30 * time.Second)
	for {
		g, err := m.Get(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if g.Round >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	closeManager(t, m)

	// The drained job must have a snapshot and stay non-terminal.
	if _, err := checkpoint.Latest(filepath.Join(dir, "jobs", j.ID, "ckpt")); err != nil {
		t.Fatalf("drained job has no snapshot: %v", err)
	}

	// A new manager over the same dir resumes and finishes the job.
	m2 := openManager(t, Config{Dir: dir, MaxRunning: 1, CheckpointEvery: 1})
	fin := waitTerminal(t, m2, j.ID, 30*time.Second)
	if fin.State != StateDone {
		t.Fatalf("recovered job: %s (failure %q)", fin.State, fin.Failure)
	}
	if !fin.Recovered {
		t.Error("recovered job not flagged Recovered")
	}
	res, err := m2.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Error("resumed result not flagged Resumed")
	}
	closeManager(t, m2)

	// Byte-identity: an uninterrupted run of the same spec produces
	// the same final circuit.
	g, metric, ropt, err := buildOptions(spec, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	clean := core.RunCtx(context.Background(), g, metric, spec.Bound, ropt)
	var sb strings.Builder
	if err := blif.Write(&sb, clean.Final); err != nil {
		t.Fatal(err)
	}
	if sb.String() != res.BLIF {
		t.Error("recovered job's result differs from an uninterrupted run")
	}
}

// TestUncertifiedRoundNeverSnapshotted: on ksa32 under MaxED 16, round
// 0 passes on the sampled patterns but fails certification, and the
// run stops uncertified with the exact circuit. A snapshot of that
// round would make a resume adopt a circuit whose worst case was never
// proved, so even at cadence 1 the job must leave none.
func TestUncertifiedRoundNeverSnapshotted(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, Config{Dir: dir, MaxRunning: 1, CheckpointEvery: 1})
	defer closeManager(t, m)
	j, err := m.Submit(JobSpec{Circuit: "ksa32", Metric: "maxed", Bound: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, j.ID, 60*time.Second)
	if fin.State != StateDone || fin.StopReason != "uncertified" {
		t.Fatalf("job ended %s, stop %q (failure %q); want done, uncertified", fin.State, fin.StopReason, fin.Failure)
	}
	res, err := m.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 || res.Rounds != 1 {
		t.Errorf("result has error %v after %d rounds; want the exact circuit after round 0", res.Error, res.Rounds)
	}
	// The result's initial size is the input's, not the size of the
	// round that failed certification.
	if res.InitialAnds != 613 {
		t.Errorf("result has %d initial ANDs; want the input's 613", res.InitialAnds)
	}
	snap, err := checkpoint.Latest(filepath.Join(dir, "jobs", j.ID, "ckpt"))
	if err == nil {
		t.Fatalf("uncertified run left a snapshot of round %d (sampled error %v)", snap.Round, snap.Error)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("checkpoint directory: %v", err)
	}
}

func TestJournalTornTailIsRepaired(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(1)
	inj.Set(FaultJournalWrite, faultinject.Rule{Prob: 1, Count: 1})
	m := openManager(t, Config{Dir: dir, MaxRunning: 1, Inj: inj})

	// First submit hits the injected torn append and must fail
	// without accepting the job.
	if _, err := m.Submit(smallSpec("a")); !errors.Is(err, ErrDisk) {
		t.Fatalf("torn journal append: want ErrDisk, got %v", err)
	}
	if got := len(m.List()); got != 0 {
		t.Fatalf("rejected job visible: %d jobs", got)
	}

	// The next submit must land cleanly after the torn bytes.
	j, err := m.Submit(smallSpec("a"))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, j.ID, 30*time.Second)
	closeManager(t, m)

	// Recovery sees exactly one job despite the torn line.
	m2 := openManager(t, Config{Dir: dir})
	defer closeManager(t, m2)
	jobs := m2.List()
	if len(jobs) != 1 || jobs[0].ID != j.ID {
		t.Fatalf("recovered %d jobs, want exactly %s", len(jobs), j.ID)
	}
	if jobs[0].State != StateDone {
		t.Fatalf("recovered job state %s, want done", jobs[0].State)
	}

	// And the journal file really does carry a torn line.
	body, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\n{") {
		t.Log("journal:", string(body))
	}
}

func TestCloseIsGoroutineLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	m := openManager(t, Config{MaxRunning: 4, Watchdog: time.Second})
	var ids []string
	for i := 0; i < 8; i++ {
		j, err := m.Submit(smallSpec("a"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitTerminal(t, m, id, 60*time.Second)
	}
	closeManager(t, m)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d after Close", runtime.NumGoroutine(), before)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestStatsCountsStates(t *testing.T) {
	inj := faultinject.New(1)
	inj.Set(FaultRoundHang, faultinject.Rule{Prob: 1, Delay: time.Hour})
	m := openManager(t, Config{MaxRunning: 1, Inj: inj})
	if _, err := m.Submit(smallSpec("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallSpec("a")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := m.Stats()
		if st.Running == 1 && st.Queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v, want 1 running / 1 queued", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Kill()
}
