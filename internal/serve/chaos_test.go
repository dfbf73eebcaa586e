package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"accals/internal/blif"
	"accals/internal/checkpoint"
	"accals/internal/core"
	"accals/internal/faultinject"
	"accals/internal/obs"
)

// TestChaos is the end-to-end fault harness: hundreds of small jobs
// submitted concurrently against a manager with every fault point
// armed (torn journal appends, failed result writes, skipped and
// corrupted checkpoints, hung rounds for the watchdog, in-run
// panics), a mid-stream Kill() emulating SIGKILL, and a recovery
// manager over the same directory. It asserts the crash-safety
// contract:
//
//   - every accepted job ends terminal (done, failed, or cancelled);
//   - every done job with a deterministic stop reason produces a
//     final circuit byte-identical to an uninterrupted clean run of
//     the same spec — including jobs resumed from checkpoints;
//   - the goroutine count returns to its pre-test baseline.
//
// The run is seed-driven (CHAOS_SEED) and the job count scales with
// CHAOS_JOBS; defaults are the CI smoke configuration.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short mode")
	}
	seed := int64(20230745)
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED: %v", err)
		}
		seed = n
	}
	numJobs := 200
	if v := os.Getenv("CHAOS_JOBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CHAOS_JOBS: %v", err)
		}
		numJobs = n
	}

	baseline := runtime.NumGoroutine()
	dir := t.TempDir()

	inj := faultinject.New(seed)
	inj.Set(FaultJournalWrite, faultinject.Rule{Prob: 0.02})
	inj.Set(FaultResultWrite, faultinject.Rule{Prob: 0.05})
	inj.Set(FaultCkptWrite, faultinject.Rule{Prob: 0.05})
	inj.Set(FaultCkptCorrupt, faultinject.Rule{Prob: 0.05, TruncateFrac: 0.5})
	inj.Set(FaultRoundHang, faultinject.Rule{Prob: 0.03, Delay: time.Minute})
	inj.Set(FaultJobPanic, faultinject.Rule{Prob: 0.05, Panic: true})

	cfg := Config{
		Dir:             dir,
		MaxRunning:      8,
		MaxQueue:        numJobs + 16,
		CheckpointEvery: 1,
		Watchdog:        400 * time.Millisecond,
		Inj:             inj,
		Metrics:         obs.NewRegistry(),
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	circuits := []string{"alu4", "cla32", "c1908", "rca32"}
	specFor := func(i int) JobSpec {
		return JobSpec{
			Tenant:    fmt.Sprintf("t%d", i%7),
			Circuit:   circuits[i%len(circuits)],
			Metric:    "er",
			Bound:     0.05,
			Patterns:  128 + 64*(i%3),
			Seed:      seed + int64(i),
			MaxRounds: 2 + i%4,
		}
	}

	// Phase 1: submit everything. Torn journal appends reject some
	// submissions with ErrDisk — those jobs were never accepted and
	// are exactly the ones the contract excludes.
	accepted := make(map[string]JobSpec)
	rejected := 0
	for i := 0; i < numJobs; i++ {
		j, err := m.Submit(specFor(i))
		switch {
		case err == nil:
			accepted[j.ID] = specFor(i)
		case errors.Is(err, ErrDisk):
			rejected++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	t.Logf("accepted %d jobs, %d rejected by injected journal faults", len(accepted), rejected)
	if len(accepted) < numJobs/2 {
		t.Fatalf("only %d/%d jobs accepted; injection rates are off", len(accepted), numJobs)
	}

	// Cancel a deterministic handful while the fleet runs.
	cancelled := 0
	for id := range accepted {
		if strings.HasSuffix(id, "3") && cancelled < 10 {
			if _, err := m.Cancel(id); err == nil {
				cancelled++
			}
		}
	}

	// Let the fleet make progress, then pull the plug mid-stream. Every
	// wait is on an event, never on the wall clock, so a loaded host
	// (or -race, ~5x slower) only stretches the run. The first trigger
	// is progress-based (half the fleet done), so the fault points see
	// a comparable number of draws either way, and it also waits until
	// every armed point has fired.
	armed := []string{
		FaultJournalWrite, FaultCkptWrite, FaultCkptCorrupt,
		FaultRoundHang, FaultJobPanic,
	}
	if !waitChaos(m, func() bool {
		if m.Stats().Done < numJobs/2 {
			return false
		}
		for _, point := range armed {
			if inj.Fired(point) == 0 {
				return false
			}
		}
		return true
	}) {
		m.Kill()
		t.Fatalf("fleet never reached %d done jobs with every fault point fired: %+v; census: %s", numJobs/2, m.Stats(), inj)
	}

	// Mid-run observability: under full chaos load the scrape must
	// still export the complete admission story. The submission phase
	// is over, so those counters are exact even while the fleet churns.
	midSnap := m.Metrics().CounterSnapshot()
	if v := sumCounters(midSnap, "accalsd_jobs_total", `event="submitted"`); v != float64(len(accepted)) {
		t.Errorf("mid-run submitted counter %v, want %d", v, len(accepted))
	}
	if v := sumCounters(midSnap, "accalsd_admission_rejections_total", `reason="disk"`); v != float64(rejected) {
		t.Errorf("mid-run disk rejections %v, want %d", v, rejected)
	}
	midText := scrapeRegistry(t, m.Metrics())
	for _, fam := range []string{
		"accalsd_queue_depth", "accalsd_jobs_running",
		"accalsd_journal_append_seconds", "accalsd_checkpoint_total",
		"accalsd_watchdog_fires_total",
	} {
		if !strings.Contains(midText, "# TYPE "+fam+" ") {
			t.Errorf("mid-run scrape misses family %s", fam)
		}
	}

	// The crash point: the store freezes once the disk holds what the
	// recovery assertions below need. That is a journaled watchdog
	// failure, because hung rounds have fired, and a job still open in
	// the journal with a valid checkpoint to be requeued and resumed
	// from. Checking and freezing under the journal lock leaves no room
	// for an append in between.
	if !waitChaos(m, func() bool { return freezeWhenKillable(m) }) {
		m.Kill()
		t.Fatalf("the journal never held a hung failure next to an open job with a valid checkpoint: %+v", m.Stats())
	}
	preKill := m.Stats()
	m.Kill()
	t.Logf("killed with %d running / %d queued / %d done", preKill.Running, preKill.Queued, preKill.Done)
	if preKill.Done == 0 {
		t.Error("kill fired before any job finished; lengthen the pre-kill window")
	}

	// Phase 2: recover over the same directory with a clean injector
	// so the fleet converges. Recovery must resume every job the
	// journal calls non-terminal.
	// A fresh registry: the conservation law below is a per-manager-
	// lifetime invariant (recovered jobs are re-admitted), so sharing
	// the killed manager's registry would double-count them.
	m2, err := Open(Config{
		Dir:             dir,
		MaxRunning:      8,
		MaxQueue:        numJobs + 16,
		CheckpointEvery: 1,
		Watchdog:        2 * time.Second,
		Metrics:         obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	jobs := m2.List()
	if len(jobs) != len(accepted) {
		t.Fatalf("recovered %d jobs, accepted %d", len(jobs), len(accepted))
	}
	recovered := 0
	for _, j := range jobs {
		if j.Recovered {
			recovered++
		}
	}
	t.Logf("recovery requeued %d interrupted jobs", recovered)
	if recovered == 0 {
		t.Error("kill interrupted no jobs; the chaos window is too late")
	}

	// Drain to completion: every accepted job must reach a terminal
	// state.
	deadline := time.Now().Add(4 * time.Minute)
	for {
		st := m2.Stats()
		if st.Running == 0 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not converge: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	counts := map[JobState]int{}
	resumed := 0
	for _, j := range m2.List() {
		if !j.State.Terminal() {
			t.Errorf("job %s not terminal: %s", j.ID, j.State)
		}
		counts[j.State]++
		if j.State == StateDone {
			if res, err := m2.Result(j.ID); err != nil {
				t.Errorf("done job %s has no readable result: %v", j.ID, err)
			} else if res.Resumed {
				resumed++
			}
		}
		if j.State == StateFailed && j.FailureKind == "" {
			t.Errorf("failed job %s has no failure kind", j.ID)
		}
	}
	t.Logf("terminal states: %v (%d done jobs resumed from checkpoints)", counts, resumed)
	if counts[StateDone] == 0 {
		t.Fatal("no job finished successfully")
	}
	if resumed == 0 {
		t.Error("no done job resumed from a checkpoint; kill/recovery path untested")
	}

	// Every armed fault point must actually have fired, or the chaos
	// run proved nothing about that path.
	for _, point := range armed {
		if inj.Fired(point) == 0 {
			t.Errorf("fault point %s never fired (seed %d); census: %s", point, seed, inj)
		}
	}
	if hung := countKind(m2, "hung"); inj.Fired(FaultRoundHang) > 0 && hung == 0 {
		t.Error("rounds hung but the watchdog tripped no job")
	} else {
		t.Logf("watchdog tripped %d hung jobs", hung)
	}

	// Byte-identity: every done job with a deterministic stop reason
	// must match an uninterrupted clean run of its spec — resumed or
	// not. (Cancelled and deadline-bounded jobs stop at a time-
	// dependent round, so their best-so-far is legitimately partial.)
	checked := 0
	for _, j := range m2.List() {
		if j.State != StateDone || j.StopReason == "deadline-exceeded" {
			continue
		}
		res, err := m2.Result(j.ID)
		if err != nil {
			t.Errorf("result %s: %v", j.ID, err)
			continue
		}
		spec := accepted[j.ID]
		g, metric, ropt, err := buildOptions(spec, cfg.DefaultWorkers, 0)
		if err != nil {
			t.Fatalf("comparator options %s: %v", j.ID, err)
		}
		clean := core.RunCtx(context.Background(), g, metric, spec.Bound, ropt)
		var sb strings.Builder
		if err := blif.Write(&sb, clean.Final); err != nil {
			t.Fatal(err)
		}
		if sb.String() != res.BLIF {
			t.Errorf("job %s (%s, resumed=%v): result diverges from clean run",
				j.ID, spec.Circuit, res.Resumed)
		}
		checked++
	}
	t.Logf("byte-identity verified for %d done jobs", checked)
	if checked == 0 {
		t.Fatal("byte-identity check covered no jobs")
	}

	// Metrics conservation at quiesce: every admission this lifetime
	// (all of them recoveries — nothing was submitted to m2) is
	// accounted for by a terminal counter, and SSE drops cannot exceed
	// subscriptions. The chaos fleet is the adversarial witness: missed
	// instrumentation on any lifecycle edge (panic, watchdog, cancel,
	// resume) breaks the equation.
	recSnap := m2.Metrics().CounterSnapshot()
	if v := sumCounters(recSnap, "accalsd_jobs_total", `event="recovered"`); v != float64(recovered) {
		t.Errorf("recovered counter %v, want %d", v, recovered)
	}
	assertMetricsConservation(t, m2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m2.Close(ctx); err != nil {
		t.Fatalf("final close: %v", err)
	}

	// Goroutine hygiene: after both managers are down the count must
	// return to the pre-test baseline.
	hygiene := time.Now().Add(15 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		}
		if time.Now().After(hygiene) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after shutdown\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// chaosWait bounds every event wait in TestChaos. It only turns a
// wait that can never end into a failure; no assertion depends on it.
const chaosWait = 5 * time.Minute

// waitChaos polls cond until it holds. It reports false once m has no
// queued or running job left and cond still fails, since nothing can
// change then, or if chaosWait passes first.
func waitChaos(m *Manager, cond func() bool) bool {
	deadline := time.Now().Add(chaosWait)
	for !cond() {
		if st := m.Stats(); st.Running == 0 && st.Queued == 0 {
			return cond()
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
	return true
}

// freezeWhenKillable freezes m's store once a crash would leave
// recovery a journaled watchdog failure and a journal-open job with a
// valid checkpoint. It checks under the journal lock, so no append
// lands between the check and the freeze, and reports whether it froze
// the store.
func freezeWhenKillable(m *Manager) bool {
	m.store.mu.Lock()
	defer m.store.mu.Unlock()
	recs, err := m.store.replay()
	if err != nil {
		return false
	}
	open := map[string]bool{}
	hung := false
	for _, rec := range recs {
		switch {
		case rec.Op == "accept":
			open[rec.ID] = true
		case rec.State.Terminal():
			delete(open, rec.ID)
			hung = hung || (rec.State == StateFailed && rec.FailureKind == "hung")
		}
	}
	if !hung {
		return false
	}
	for id := range open {
		if _, err := checkpoint.Latest(m.store.ckptDir(id)); err == nil {
			m.store.freeze()
			return true
		}
	}
	return false
}

func countKind(m *Manager, kind string) int {
	n := 0
	for _, j := range m.List() {
		if j.State == StateFailed && j.FailureKind == kind {
			n++
		}
	}
	return n
}
