// Package checkpoint persists approximate-synthesis run state so that
// long runs survive interruption. A Writer saves a Snapshot every N
// rounds using an atomic write-then-rename, and Latest recovers the
// highest-round valid snapshot from a directory, skipping torn or
// corrupt files. The graph travels inside the snapshot as BLIF text,
// which keeps snapshots self-contained, diffable, and independent of
// internal node numbering.
//
// Snapshots deliberately exclude the incremental round engine's cache
// of per-target LAC candidates: it lives in memory for one run and is
// keyed to concrete node ids, which the BLIF round-trip renumbers. A
// resumed run rebuilds it from scratch — its first round is a full
// generation — and converges to the same trajectory because the cache
// never changes results, only timing.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"accals/internal/aig"
	"accals/internal/blif"
)

// ErrCorruptSnapshot reports a snapshot file that exists but cannot be
// used: truncated JSON (a torn write that escaped the atomic-rename
// protocol, e.g. through a failing disk), or an embedded BLIF that no
// longer parses. Match with errors.Is; the wrapped message carries the
// decode detail.
var ErrCorruptSnapshot = errors.New("checkpoint: corrupt snapshot")

// Snapshot is one recoverable point of a synthesis run. Round is the
// global round counter (rounds completed before this snapshot was
// taken), so a resumed run continues at Round+1 and per-round RNG
// derivation replays identically.
type Snapshot struct {
	Round   int     `json:"round"`
	Error   float64 `json:"error"`
	Seed    int64   `json:"seed"`
	HasSeed bool    `json:"has_seed,omitempty"`
	Metric  string  `json:"metric"`
	Bound   float64 `json:"bound"`
	Method  string  `json:"method"`
	BLIF    string  `json:"blif"`

	// Metrics carries the run's cumulative observability counters
	// (obs.Registry.CounterSnapshot), so a resumed run's metrics
	// continue from the interrupted run instead of restarting at zero.
	// Absent in snapshots taken without a recorder.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// LedgerBytes is the size of the run bundle's ledger.jsonl when the
	// snapshot was taken. A resume truncates the ledger to this offset
	// before appending (ledger.Resume), discarding round events recorded
	// after the snapshot that the resumed run will re-execute. Absent in
	// snapshots taken without a bundle.
	LedgerBytes int64 `json:"ledger_bytes,omitempty"`

	SavedAt time.Time `json:"saved_at"`
}

// Graph parses the embedded BLIF back into an AIG.
func (s *Snapshot) Graph() (*aig.Graph, error) {
	g, err := blif.Read(strings.NewReader(s.BLIF))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: embedded BLIF: %w", err)
	}
	return g, nil
}

// SetGraph serialises g into the snapshot as BLIF text.
func (s *Snapshot) SetGraph(g *aig.Graph) error {
	var sb strings.Builder
	if err := blif.Write(&sb, g); err != nil {
		return fmt.Errorf("checkpoint: serialise graph: %w", err)
	}
	s.BLIF = sb.String()
	return nil
}

// Writer saves snapshots into a directory at a configurable cadence.
type Writer struct {
	dir   string
	every int
}

// NewWriter prepares dir (creating it if needed) and returns a Writer
// that considers a snapshot due every `every` rounds. every < 1 is
// normalised to 1 (snapshot after every round).
func NewWriter(dir string, every int) (*Writer, error) {
	if every < 1 {
		every = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Writer{dir: dir, every: every}, nil
}

// Dir returns the directory snapshots are written to.
func (w *Writer) Dir() string { return w.dir }

// Due reports whether a snapshot should be taken after round (rounds
// are counted from 0, so with every=10 rounds 9, 19, ... are due).
func (w *Writer) Due(round int) bool {
	return (round+1)%w.every == 0
}

// Save writes s atomically: the JSON body goes to a temp file in the
// same directory, is synced, and is then renamed into place, so a
// crash mid-write can never leave a torn ckpt-*.json behind.
func (w *Writer) Save(s *Snapshot) error {
	if s.SavedAt.IsZero() {
		s.SavedAt = time.Now()
	}
	body, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	tmp, err := os.CreateTemp(w.dir, ".ckpt-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	final := filepath.Join(w.dir, fmt.Sprintf("ckpt-%08d.json", s.Round))
	if err := os.Rename(tmpName, final); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads and validates one snapshot file. A file that cannot be
// read reports the underlying I/O error; a file that reads but does
// not decode — truncated JSON, or an embedded BLIF that fails to
// parse — reports an error wrapping ErrCorruptSnapshot, so callers
// can distinguish "disk problem" from "torn or damaged snapshot".
func Load(path string) (*Snapshot, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var s Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptSnapshot, filepath.Base(path), err)
	}
	if _, err := s.Graph(); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptSnapshot, filepath.Base(path), err)
	}
	return &s, nil
}

// Latest scans dir for the highest-round snapshot that loads (see
// Load). Corrupt or torn files are skipped, not fatal, so a damaged
// newest snapshot falls back to the previous one. It returns
// os.ErrNotExist (wrapped) when the directory holds no snapshot files
// at all, and ErrCorruptSnapshot (wrapped) when files exist but every
// one of them is corrupt — the caller then knows state was written
// and lost, rather than never written.
func Latest(dir string) (*Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".json") {
			names = append(names, n)
		}
	}
	// Zero-padded round numbers make lexical order round order; walk
	// from the newest back to the first snapshot that validates.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var lastErr error
	for _, n := range names {
		s, err := Load(filepath.Join(dir, n))
		if err != nil {
			lastErr = err
			continue
		}
		return s, nil
	}
	if lastErr != nil && errors.Is(lastErr, ErrCorruptSnapshot) {
		return nil, fmt.Errorf("no usable snapshot in %s: %w", dir, lastErr)
	}
	return nil, fmt.Errorf("checkpoint: no usable snapshot in %s: %w", dir, os.ErrNotExist)
}
