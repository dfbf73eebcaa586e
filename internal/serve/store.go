package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"accals/internal/faultinject"
)

// store is the daemon's durable state, laid out as
//
//	<dir>/journal.jsonl        fsync'd write-ahead journal of job
//	                           acceptances and state transitions
//	<dir>/jobs/<id>/ckpt/      per-job checkpoint snapshots
//	<dir>/jobs/<id>/result.json  terminal result artifact
//
// Crash-safety contract: a job exists iff its accept record reached
// the journal (Submit fails if the fsync fails, so the client and the
// journal always agree); a job is terminal iff a terminal state
// record follows its accept; result.json is written (atomically)
// before the terminal record, so a terminal job's result is always
// readable. A crash between result write and terminal record leaves
// the job non-terminal: recovery re-runs it from its latest snapshot
// and deterministically overwrites the same result.
//
// The journal tolerates a torn tail (a crash mid-append): appends go
// through the fault-injectable write path, and after a short write
// the next append first restores the line framing with a bare
// newline, so one torn record can never swallow its successor.
type store struct {
	dir     string
	journal *os.File
	mu      sync.Mutex // serialises journal appends
	// needNL is set when the journal's last byte is not '\n' (a torn
	// append); the next append writes a newline first so the torn
	// bytes form their own (skippable) line.
	needNL bool
	// frozen simulates a yanked disk: every durable write fails. Used
	// by Manager.Kill to emulate a process crash without leaking the
	// running goroutines.
	frozen atomic.Bool
	inj    *faultinject.Injector
	met    *metrics
}

// Fault-injection point names the store consults. Tests arm them on
// the Manager's injector; production leaves the injector nil.
const (
	// FaultJournalWrite makes a journal append write a truncated
	// prefix of the record and fail, like a crash mid-append.
	FaultJournalWrite = "journal.write"
	// FaultResultWrite fails a result.json write.
	FaultResultWrite = "result.write"
	// FaultCkptWrite fails a checkpoint snapshot save.
	FaultCkptWrite = "ckpt.write"
	// FaultCkptCorrupt truncates a just-written checkpoint snapshot
	// on disk, like a torn write surviving a crash.
	FaultCkptCorrupt = "ckpt.corrupt"
	// FaultRoundHang stalls a synthesis round until the delay elapses
	// or the job is cancelled (the watchdog's prey).
	FaultRoundHang = "round.hang"
	// FaultJobPanic panics inside a synthesis run, exercising per-job
	// panic isolation.
	FaultJobPanic = "job.panic"
)

// journalRec is one journal line.
type journalRec struct {
	// Op is "accept" (a new job, with its spec) or "state" (a
	// transition).
	Op    string   `json:"op"`
	ID    string   `json:"id"`
	Spec  *JobSpec `json:"spec,omitempty"`
	State JobState `json:"state,omitempty"`
	// Terminal-state detail, so recovery rebuilds job status without
	// reading result files.
	Failure     string    `json:"failure,omitempty"`
	FailureKind string    `json:"failure_kind,omitempty"`
	StopReason  string    `json:"stop_reason,omitempty"`
	Round       int       `json:"round,omitempty"`
	At          time.Time `json:"at"`
}

// openStore prepares dir and opens the journal for appending,
// detecting a torn tail left by a previous crash.
func openStore(dir string, inj *faultinject.Injector, met *metrics) (*store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &store{dir: dir, journal: f, inj: inj, met: met}
	if end, err := f.Seek(0, io.SeekEnd); err == nil && end > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], end-1); err == nil && last[0] != '\n' {
			s.needNL = true
		}
	}
	return s, nil
}

// close releases the journal handle.
func (s *store) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.Close()
}

// freeze makes every subsequent durable write fail, emulating the
// disk disappearing at a crash point. An append still waiting for the
// journal lock fails too, so a freeze made under that lock leaves the
// journal exactly as the holder saw it.
func (s *store) freeze() { s.frozen.Store(true) }

// append journals one record with an fsync, so an acknowledged record
// survives a crash. Injected failures write a truncated prefix first,
// exercising the torn-tail repair on the next append.
func (s *store) append(rec journalRec) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("%w: encode journal record: %v", ErrDisk, err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		return fmt.Errorf("%w: store frozen", ErrDisk)
	}
	if s.needNL {
		if _, err := s.journal.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("%w: %v", ErrDisk, err)
		}
		s.needNL = false
	}
	if err := s.inj.Fail(FaultJournalWrite); err != nil {
		// Simulate the crash the rule describes: half the record
		// reaches the disk, the rest (and the newline) does not. The
		// prefix of a JSON object is never valid JSON, so replay can
		// only skip it, never mistake it for an acknowledged record.
		if n, werr := s.journal.Write(line[:len(line)/2]); werr == nil && n > 0 {
			s.needNL = true
		}
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	start := time.Now()
	if n, err := s.journal.Write(line); err != nil {
		// A real short write (ENOSPC, EIO) tears the tail exactly like
		// the injected crash above: arm the framing repair so the torn
		// bytes cannot swallow the next acknowledged record.
		if n > 0 && line[n-1] != '\n' {
			s.needNL = true
		}
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	fsyncStart := time.Now()
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	now := time.Now()
	s.met.observeJournal(now.Sub(start), now.Sub(fsyncStart))
	return nil
}

// replay decodes the journal from the start, skipping torn or
// corrupt lines (each occupies its own line by the framing-repair
// invariant), and returns the records in append order.
func (s *store) replay() ([]journalRec, error) {
	f, err := os.Open(filepath.Join(s.dir, "journal.jsonl"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	var recs []journalRec
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn append; its framing newline isolated it
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: journal: %w", err)
	}
	return recs, nil
}

// jobDir returns (creating) the job's state directory.
func (s *store) jobDir(id string) (string, error) {
	dir := filepath.Join(s.dir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("serve: %w", err)
	}
	return dir, nil
}

// ckptDir returns the job's checkpoint directory path (not created;
// checkpoint.NewWriter creates it on first use).
func (s *store) ckptDir(id string) string {
	return filepath.Join(s.dir, "jobs", id, "ckpt")
}

// bundleDir returns the job's run-bundle directory path (created by
// session.OpenBundle on first use).
func (s *store) bundleDir(id string) string {
	return filepath.Join(s.dir, "jobs", id, "bundle")
}

// writeResult persists a terminal job's result atomically
// (write-then-rename in the job directory), through the injectable
// failure point.
func (s *store) writeResult(res *JobResult) error {
	if s.frozen.Load() {
		return fmt.Errorf("%w: store frozen", ErrDisk)
	}
	if err := s.inj.Fail(FaultResultWrite); err != nil {
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	dir, err := s.jobDir(res.ID)
	if err != nil {
		return err
	}
	body, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("%w: encode result: %v", ErrDisk, err)
	}
	tmp, err := os.CreateTemp(dir, ".result-*.tmp")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, "result.json")); err != nil {
		return fmt.Errorf("%w: %v", ErrDisk, err)
	}
	return nil
}

// readResult loads a terminal job's result artifact.
func (s *store) readResult(id string) (*JobResult, error) {
	body, err := os.ReadFile(filepath.Join(s.dir, "jobs", id, "result.json"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: no result artifact for %s", ErrNotReady, id)
		}
		return nil, fmt.Errorf("serve: %w", err)
	}
	var res JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("serve: result %s: %w", id, err)
	}
	return &res, nil
}
