package session

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"accals/internal/checkpoint"
	"accals/internal/circuits"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/ledger"
	"accals/internal/obs"
	"accals/internal/runctl"
)

// newSession is mtp8 under ER 5% at 512 patterns, seed 7: a run of a
// few rounds that ends bounded, with its last round over the bound.
func newSession(t *testing.T, rec *obs.Recorder) *Session {
	t.Helper()
	g, err := circuits.ByName("mtp8")
	if err != nil {
		t.Fatal(err)
	}
	return &Session{Graph: g, Method: "accals", Metric: errmetric.ER, Bound: 0.05, Opt: core.Options{
		NumPatterns:    512,
		PatternSeed:    7,
		HasPatternSeed: true,
		Params:         core.Params{Seed: 7, HasSeed: true},
		Workers:        1,
		Recorder:       rec,
	}}
}

// recordSaves attaches a checkpointer at the given cadence whose save
// hook records the saved rounds instead of writing them, and which
// counts the skipped rounds.
func recordSaves(t *testing.T, s *Session, every int) (c *Checkpointer, saved *[]int, skipped *int) {
	t.Helper()
	w, err := checkpoint.NewWriter(t.TempDir(), every)
	if err != nil {
		t.Fatal(err)
	}
	saved, skipped = new([]int), new(int)
	c = s.Checkpoint(w, func(snap *checkpoint.Snapshot) error {
		if snap.BLIF == "" {
			t.Errorf("round %d saved without its circuit", snap.Round)
		}
		*saved = append(*saved, snap.Round)
		return nil
	}, func() { *skipped++ })
	return c, saved, skipped
}

// TestCheckpointerRejectsOverBoundAndUncertified: a round over the
// bound and a round whose certification failed are never snapshotted,
// not on the cadence and not after an interrupt.
func TestCheckpointerRejectsOverBoundAndUncertified(t *testing.T) {
	s := newSession(t, nil)
	g := s.Graph
	c, saved, skipped := recordSaves(t, s, 1)
	c.round(core.RoundStats{Round: 0, Error: 0.02, Graph: g})
	c.round(core.RoundStats{Round: 1, Error: 0.06, Graph: g})
	c.round(core.RoundStats{Round: 2, Error: 0.01, CertRan: true, Certified: false, Graph: g})
	c.round(core.RoundStats{Round: 3, Error: 0.05, CertRan: true, Certified: true, Graph: g})
	c.round(core.RoundStats{Round: 4, Error: 0.07, Graph: g})
	c.stop(runctl.Cancelled)
	if want := []int{0, 3}; !slices.Equal(*saved, want) {
		t.Errorf("saved rounds %v, want %v", *saved, want)
	}
	// The interrupt found round 3, the newest accepted, on disk.
	if *skipped != 1 {
		t.Errorf("%d skipped rounds, want 1", *skipped)
	}
	if r, ok := c.Final(); ok {
		t.Errorf("interrupt saved round %d again", r)
	}
}

// TestCheckpointerEncodesOnlySavedRounds: at cadence 10 over 23
// accepted rounds, rounds 9 and 19 are saved, and no other round's
// circuit is ever BLIF-encoded.
func TestCheckpointerEncodesOnlySavedRounds(t *testing.T) {
	s := newSession(t, nil)
	c, saved, skipped := recordSaves(t, s, 10)
	for r := 0; r < 23; r++ {
		c.round(core.RoundStats{Round: r, Error: 0.01, Graph: s.Graph})
		encoded := c.last.BLIF != ""
		if due := r == 9 || r == 19; encoded != due {
			t.Errorf("round %d: encoded %v, want %v", r, encoded, due)
		}
	}
	c.stop(runctl.Bounded)
	if want := []int{9, 19}; !slices.Equal(*saved, want) {
		t.Errorf("saved rounds %v, want %v", *saved, want)
	}
	if *skipped != 21 {
		t.Errorf("%d skipped rounds, want 21", *skipped)
	}
	if _, ok := c.Final(); ok {
		t.Error("a run that converged saved a final snapshot")
	}
}

// TestCheckpointerInterruptSavesLastAcceptedOnce: an interrupted run
// saves its newest accepted round off the cadence, once, and nothing
// when the cadence has saved it already.
func TestCheckpointerInterruptSavesLastAcceptedOnce(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rounds    int
		reason    runctl.StopReason
		wantSaved []int
		wantFinal int
	}{
		{"cancelled off cadence", 13, runctl.Cancelled, []int{9, 12}, 12},
		{"deadline off cadence", 3, runctl.DeadlineExceeded, []int{2}, 2},
		{"cancelled on cadence", 20, runctl.Cancelled, []int{9, 19}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSession(t, nil)
			c, saved, _ := recordSaves(t, s, 10)
			for r := 0; r < tc.rounds; r++ {
				c.round(core.RoundStats{Round: r, Error: 0.01, Graph: s.Graph})
			}
			// A rejected round after the last accepted one changes nothing.
			c.round(core.RoundStats{Round: tc.rounds, Error: 0.9, Graph: s.Graph})
			c.stop(tc.reason)
			if !slices.Equal(*saved, tc.wantSaved) {
				t.Errorf("saved rounds %v, want %v", *saved, tc.wantSaved)
			}
			if r, ok := c.Final(); r != tc.wantFinal || ok != (tc.wantFinal >= 0) {
				t.Errorf("Final() = %d, %v; want %d", r, ok, tc.wantFinal)
			}
		})
	}
	if _, ok := (*Checkpointer)(nil).Final(); ok {
		t.Error("a nil checkpointer reports a final snapshot")
	}
}

// runCheckpointed runs s to the end with a snapshot after every
// accepted round into ckptDir, and returns the result.
func runCheckpointed(t *testing.T, s *Session, ckptDir string) *core.Result {
	t.Helper()
	w, err := checkpoint.NewWriter(ckptDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Checkpoint(w, w.Save, nil)
	res := s.Run(context.Background(), nil)
	if err := s.Close(res); err != nil {
		t.Fatal(err)
	}
	return res
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestResumeCutsBundledLedger: a resume reopens the bundle with the
// ledger cut to the snapshot's offset, and a snapshot taken without a
// bundle (offset 0) starts an empty ledger.
func TestResumeCutsBundledLedger(t *testing.T) {
	dir := t.TempDir()
	bundleDir := filepath.Join(dir, "bundle")
	ckptDir := filepath.Join(dir, "ckpt")
	ledgerPath := filepath.Join(bundleDir, ledger.LedgerFile)

	s := newSession(t, obs.NewRecorder())
	if err := s.OpenBundle(bundleDir, []string{"test"}, 0); err != nil {
		t.Fatal(err)
	}
	res := runCheckpointed(t, s, ckptDir)
	if res.StopReason != runctl.Bounded {
		t.Fatalf("run stopped %v, want bounded", res.StopReason)
	}
	snap, err := checkpoint.Latest(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	full := fileSize(t, ledgerPath)
	if snap.LedgerBytes <= 0 || snap.LedgerBytes >= full {
		t.Fatalf("snapshot ledger offset %d, want inside the %d-byte ledger", snap.LedgerBytes, full)
	}
	if snap.Metrics["accals_rounds_total"] == 0 {
		t.Errorf("snapshot carries no counters: %v", snap.Metrics)
	}

	r := newSession(t, obs.NewRecorder())
	if _, err := r.Resume(ckptDir); err != nil {
		t.Fatal(err)
	}
	if err := r.OpenBundle(bundleDir, []string{"test"}, 0); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, ledgerPath); got != snap.LedgerBytes {
		t.Errorf("resumed ledger holds %d bytes, want the snapshot's %d", got, snap.LedgerBytes)
	}
	if got := fileSize(t, filepath.Join(bundleDir, ledger.TraceFile)); got != 0 {
		t.Errorf("resumed bundle's trace holds %d bytes before the run, want a fresh one", got)
	}
	man, err := ledger.ReadManifest(filepath.Join(bundleDir, ledger.ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if !man.Resumed || man.Metric != "er" || man.Seed != 7 {
		t.Errorf("resumed manifest %+v", man)
	}
	if err := r.Close(nil); err != nil {
		t.Fatal(err)
	}

	// Snapshots taken without a bundle record offset 0: resuming one
	// into the same bundle leaves an empty ledger.
	plainDir := filepath.Join(dir, "plain")
	p := newSession(t, obs.NewRecorder())
	runCheckpointed(t, p, plainDir)
	if snap, err := checkpoint.Latest(plainDir); err != nil || snap.LedgerBytes != 0 || snap.Metrics == nil {
		t.Fatalf("snapshot without a bundle: %v, ledger offset and counters %+v", err, snap)
	}
	z := newSession(t, obs.NewRecorder())
	if _, err := z.Resume(plainDir); err != nil {
		t.Fatal(err)
	}
	if err := z.OpenBundle(bundleDir, []string{"test"}, 0); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, ledgerPath); got != 0 {
		t.Errorf("offset-0 resume left %d ledger bytes, want an empty ledger", got)
	}
	if err := z.Close(nil); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesOtherRuns: a snapshot of a different run or circuit
// is refused, and the refusal leaves the session unchanged.
func TestResumeRefusesOtherRuns(t *testing.T) {
	ckptDir := t.TempDir()
	runCheckpointed(t, newSession(t, nil), ckptDir)

	other := newSession(t, nil)
	other.Bound = 0.1
	if _, err := other.Resume(ckptDir); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Errorf("resume under another bound: %v", err)
	}
	if other.Opt.Start != nil {
		t.Error("a refused resume installed a warm start")
	}
	alu4, err := circuits.ByName("alu4")
	if err != nil {
		t.Fatal(err)
	}
	wrong := newSession(t, nil)
	wrong.Graph = alu4
	if _, err := wrong.Resume(ckptDir); err == nil || !strings.Contains(err.Error(), "PIs") {
		t.Errorf("resume onto another circuit: %v", err)
	}
	same := newSession(t, nil)
	same.Opt.Params = core.Params{}
	snap, err := same.Resume(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if same.Opt.Start == nil || same.Opt.Start.Round != snap.Round+1 || same.Opt.Params.Seed != 7 || same.Opt.PatternSeed != 7 {
		t.Errorf("resume installed start %+v, seeds %d/%d", same.Opt.Start, same.Opt.Params.Seed, same.Opt.PatternSeed)
	}
}
