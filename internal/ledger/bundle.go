package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"
)

// Bundle file names. A run bundle is a self-describing directory:
//
//	<dir>/ledger.jsonl        the per-round decision ledger
//	<dir>/manifest.json       config + environment manifest (Manifest)
//	<dir>/summary.json        end-of-run summary (written by the caller)
//	<dir>/trace.jsonl         optional phase trace (obs.TraceJSONL)
//	<dir>/profiles/cpu.pprof  auto-captured on a slow round
//	<dir>/profiles/heap.pprof auto-captured on a slow round
const (
	LedgerFile   = "ledger.jsonl"
	ManifestFile = "manifest.json"
	SummaryFile  = "summary.json"
	TraceFile    = "trace.jsonl"
	ProfileDir   = "profiles"
)

// Manifest records what produced a bundle: the run configuration and
// enough of the environment to reproduce or explain it.
type Manifest struct {
	Schema    string    `json:"schema"`
	CreatedAt time.Time `json:"created_at"`
	// Command is the invoking process's argument vector.
	Command []string `json:"command,omitempty"`
	// Run configuration.
	Circuit     string  `json:"circuit,omitempty"`
	Method      string  `json:"method,omitempty"`
	Metric      string  `json:"metric,omitempty"`
	Bound       float64 `json:"bound,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Patterns    int     `json:"patterns,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	Incremental bool    `json:"incremental,omitempty"`
	// TraceID names the run: it matches the recorder's trace ID and the
	// summary's trace_id.
	TraceID string `json:"trace_id,omitempty"`
	// Environment.
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev,omitempty"`
	GitDirty   bool   `json:"git_dirty,omitempty"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Resumed marks a bundle that was reopened by a checkpoint resume.
	Resumed bool `json:"resumed,omitempty"`
}

// FillEnvironment populates the manifest's environment fields from the
// running process: Go version, vcs revision (when built with VCS
// stamping), GOOS/GOARCH, GOMAXPROCS and CPU count.
func (m *Manifest) FillEnvironment() {
	m.Schema = Schema
	m.GoVersion = runtime.Version()
	m.GOOS = runtime.GOOS
	m.GOARCH = runtime.GOARCH
	m.GOMAXPROCS = runtime.GOMAXPROCS(0)
	m.NumCPU = runtime.NumCPU()
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRev = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value == "true"
			}
		}
	}
}

// Bundle manages one run-bundle directory: it owns the ledger file
// (create or append), exposes the attached Writer as the recorder
// sink, writes the manifest and summary, and captures CPU/heap
// profiles when a round exceeds the slow-round threshold.
type Bundle struct {
	dir    string
	file   *os.File
	base   int64 // ledger bytes already on disk when opened (resume)
	writer *Writer

	mu            sync.Mutex
	slowThreshold time.Duration
	profiled      bool
	cpuFile       *os.File
}

// Create initialises dir as a fresh bundle: the directory is created
// and ledger.jsonl is truncated.
func Create(dir string) (*Bundle, error) {
	return open(dir, false)
}

// Resume reopens dir's ledger in append mode, truncating it to
// truncateTo bytes first when truncateTo >= 0. Truncation is how a
// checkpoint resume discards ledger lines from rounds after the
// snapshot it restarts from: the interrupted run may have recorded
// rounds the resume will re-execute, and without the cut those rounds
// would appear twice. Pass -1 to append without truncating.
func Resume(dir string, truncateTo int64) (*Bundle, error) {
	b, err := open(dir, true)
	if err != nil {
		return nil, err
	}
	if truncateTo >= 0 && truncateTo < b.base {
		if err := b.file.Truncate(truncateTo); err != nil {
			b.file.Close()
			return nil, fmt.Errorf("ledger: truncate %s: %w", b.file.Name(), err)
		}
		if _, err := b.file.Seek(truncateTo, 0); err != nil {
			b.file.Close()
			return nil, fmt.Errorf("ledger: %w", err)
		}
		b.base = truncateTo
	}
	return b, nil
}

func open(dir string, appendTo bool) (*Bundle, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: bundle dir: %w", err)
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if appendTo {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(filepath.Join(dir, LedgerFile), flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	b := &Bundle{dir: dir, file: f}
	if appendTo {
		if st, err := f.Stat(); err == nil {
			b.base = st.Size()
		}
	}
	b.writer = NewWriter(f)
	return b, nil
}

// Writer returns the ledger sink to attach to the run's recorder.
func (b *Bundle) Writer() *Writer { return b.writer }

// LedgerSize returns the absolute size of the ledger on disk right
// now: pre-existing bytes plus bytes written this run. Checkpoints
// record this offset so a resume can truncate rounds recorded after
// the snapshot.
func (b *Bundle) LedgerSize() int64 {
	return b.base + b.writer.Size()
}

// Path returns the path of a file inside the bundle.
func (b *Bundle) Path(name string) string { return filepath.Join(b.dir, name) }

// WriteManifest writes manifest.json.
func (b *Bundle) WriteManifest(m Manifest) error {
	return b.writeJSON(ManifestFile, m)
}

// WriteSummary writes summary.json from any JSON-marshalable value
// (the accals command uses RunSummary).
func (b *Bundle) WriteSummary(v any) error {
	return b.writeJSON(SummaryFile, v)
}

func (b *Bundle) writeJSON(name string, v any) error {
	f, err := os.Create(b.Path(name))
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("ledger: write %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ledger: write %s: %w", name, err)
	}
	return nil
}

// SetSlowRoundThreshold arms profile capture: the first round whose
// duration reaches d triggers a heap profile snapshot and starts a CPU
// profile that runs until Close, both under <dir>/profiles/. Zero (the
// default) disables capture.
func (b *Bundle) SetSlowRoundThreshold(d time.Duration) {
	b.mu.Lock()
	b.slowThreshold = d
	b.mu.Unlock()
}

// ObserveRound feeds one completed round's duration into the slow-round
// trigger. Call it from the run's Progress callback; it is cheap when
// capture is disarmed or already fired.
func (b *Bundle) ObserveRound(round int, dur time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.slowThreshold <= 0 || b.profiled || dur < b.slowThreshold {
		return
	}
	b.profiled = true
	dir := filepath.Join(b.dir, ProfileDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
		_ = pprof.WriteHeapProfile(f)
		f.Close()
	}
	// The CPU profile covers the rest of the run: profiling the rounds
	// after the slow one is the useful signal (the slow round itself is
	// already gone). StartCPUProfile fails if another profile is
	// active (e.g. -pprof-addr scraping); that is not worth aborting a
	// synthesis over, so the error only suppresses the capture.
	if f, err := os.Create(filepath.Join(dir, "cpu.pprof")); err == nil {
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(f.Name())
		} else {
			b.cpuFile = f
		}
	}
}

// Profiled reports whether the slow-round trigger has fired.
func (b *Bundle) Profiled() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.profiled
}

// Close stops an in-flight CPU profile, syncs and closes the ledger
// file, and reports the writer's first error so truncated ledgers are
// not silent.
func (b *Bundle) Close() error {
	b.mu.Lock()
	if b.cpuFile != nil {
		pprof.StopCPUProfile()
		b.cpuFile.Close()
		b.cpuFile = nil
	}
	b.mu.Unlock()
	err := b.writer.Err()
	if cerr := b.file.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	return nil
}
