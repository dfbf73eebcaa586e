package serve

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"accals/internal/aig"
	"accals/internal/blif"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/obs"
)

// Typed errors of the serving layer. The HTTP surface maps them to
// status codes; library callers match with errors.Is.
var (
	// ErrBadSpec: the submitted job specification is invalid (unknown
	// circuit, bad metric or bound, unparsable BLIF, ...).
	ErrBadSpec = errors.New("serve: invalid job spec")
	// ErrQueueFull: admission control rejected the job because the
	// queue is at capacity. Retry later.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrQuotaExceeded: the tenant already has its quota of queued or
	// running jobs.
	ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")
	// ErrDraining: the server is shutting down and accepts no new jobs.
	ErrDraining = errors.New("serve: server is draining")
	// ErrNotFound: no job with that ID.
	ErrNotFound = errors.New("serve: job not found")
	// ErrNotReady: the job has no result yet (still queued or running).
	ErrNotReady = errors.New("serve: job result not ready")
	// ErrJobPanicked: the job's synthesis run panicked; the job failed
	// alone and the daemon kept serving.
	ErrJobPanicked = errors.New("serve: job panicked")
	// ErrJobHung: the watchdog cancelled the job because no round
	// completed within the configured interval.
	ErrJobHung = errors.New("serve: job hung (watchdog)")
	// ErrDisk: the job's durable state (journal, result) could not be
	// written.
	ErrDisk = errors.New("serve: disk write failed")
)

// JobState is one node of the job state machine:
//
//	queued ──▶ running ──▶ done
//	   │          │──────▶ failed
//	   └──────────┴──────▶ cancelled
//
// plus the restart edge: a running job interrupted by a daemon crash
// or drain is re-queued on recovery and resumes from its latest
// checkpoint. done, failed and cancelled are terminal.
type JobState string

// Job states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether s is a final state.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is a synthesis job submission. Exactly one of Circuit (a
// built-in benchmark name) and BLIF (an inline BLIF netlist) selects
// the input circuit.
type JobSpec struct {
	// Tenant attributes the job for quota accounting. Empty is the
	// anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// Circuit is a built-in benchmark name (see accals -list).
	Circuit string `json:"circuit,omitempty"`
	// BLIF is an inline BLIF netlist (alternative to Circuit).
	BLIF string `json:"blif,omitempty"`
	// Method is the synthesis flow: "accals" (default) or "seals".
	Method string `json:"method,omitempty"`
	// Metric is the error metric: er, nmed, mred, mhd or maxed
	// (certified worst-case error distance).
	Metric string `json:"metric"`
	// Bound is the error bound: a fraction in (0,1] for the
	// statistical metrics, a non-negative integer error distance for
	// maxed.
	Bound float64 `json:"bound"`
	// Patterns is the Monte-Carlo pattern budget (0 = default).
	Patterns int `json:"patterns,omitempty"`
	// Seed drives LAC set selection and pattern generation; 0 means
	// the library default.
	Seed int64 `json:"seed,omitempty"`
	// MaxRounds caps the synthesis rounds (0 = default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// MaxRuntime is the per-job wall-clock deadline as a Go duration
	// string ("30s", "10m"). Empty means the server default. The
	// budget applies per execution segment: a recovered job gets a
	// fresh budget for the resumed segment.
	MaxRuntime string `json:"max_runtime,omitempty"`
	// Workers is the per-job evaluation worker count (0 = server
	// default of 1; results are identical at any setting).
	Workers int `json:"workers,omitempty"`
}

// maxRuntime returns the parsed MaxRuntime, or def when unset.
// Validate guarantees the string parses.
func (s *JobSpec) maxRuntime(def time.Duration) time.Duration {
	if s.MaxRuntime == "" {
		return def
	}
	d, err := time.ParseDuration(s.MaxRuntime)
	if err != nil {
		return def
	}
	return d
}

// method returns the normalised synthesis method.
func (s *JobSpec) method() string {
	if s.Method == "" {
		return "accals"
	}
	return strings.ToLower(s.Method)
}

// Validate checks the spec without running it, returning an error
// wrapping ErrBadSpec on the first problem. It parses the circuit, so
// a successfully submitted job can always start.
func (s *JobSpec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
	}
	switch {
	case s.Circuit != "" && s.BLIF != "":
		return fail("use either circuit or blif, not both")
	case s.Circuit == "" && s.BLIF == "":
		return fail("no input circuit: set circuit or blif")
	}
	if m := s.method(); m != "accals" && m != "seals" {
		return fail("unknown method %q (want accals or seals)", m)
	}
	metric, err := errmetric.ParseKind(s.Metric)
	if err != nil {
		return fail("%v", err)
	}
	if err := errmetric.ValidateBound(metric, s.Bound); err != nil {
		if metric == errmetric.MaxED {
			return fail("bound %v invalid: maxed wants a non-negative integer error distance", s.Bound)
		}
		return fail("bound %v out of range (0,1]", s.Bound)
	}
	if metric == errmetric.MaxED && s.method() != "accals" {
		return fail("metric maxed requires method accals")
	}
	if s.Patterns < 0 {
		return fail("patterns %d negative", s.Patterns)
	}
	if s.MaxRounds < 0 {
		return fail("max_rounds %d negative", s.MaxRounds)
	}
	if s.Workers < 0 {
		return fail("workers %d negative", s.Workers)
	}
	if s.MaxRuntime != "" {
		d, err := time.ParseDuration(s.MaxRuntime)
		if err != nil || d <= 0 {
			return fail("max_runtime %q is not a positive duration", s.MaxRuntime)
		}
	}
	g, err := s.graph()
	if err != nil {
		return fail("%v", err)
	}
	if err := errmetric.Validate(metric, g); err != nil {
		return fail("%v", err)
	}
	return nil
}

// graph materialises the spec's input circuit.
func (s *JobSpec) graph() (*aig.Graph, error) {
	if s.Circuit != "" {
		return circuits.ByName(s.Circuit)
	}
	return blif.Read(strings.NewReader(s.BLIF))
}

// Job is a point-in-time public snapshot of one job. Manager methods
// return copies, so callers may retain them freely.
type Job struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`

	// Round, Error and NumAnds track the live trajectory while the
	// job runs (and its final point once terminal).
	Round   int     `json:"round,omitempty"`
	Error   float64 `json:"error,omitempty"`
	NumAnds int     `json:"num_ands,omitempty"`

	// StopReason is the synthesis stop reason once the run finished
	// (bounded, max-rounds, stagnated, cancelled, deadline-exceeded).
	StopReason string `json:"stop_reason,omitempty"`
	// Failure describes why a failed job failed; FailureKind is its
	// machine-readable class: "panic", "hung", "disk", "spec" or
	// "internal".
	Failure     string `json:"failure,omitempty"`
	FailureKind string `json:"failure_kind,omitempty"`

	// Recovered marks a job re-queued by daemon-restart recovery;
	// Resumed marks an execution segment warm-started from a
	// checkpoint snapshot.
	Recovered bool `json:"recovered,omitempty"`
	Resumed   bool `json:"resumed,omitempty"`
}

// JobResult is the durable artifact of a finished job: the best
// circuit found (as BLIF) and the run's summary numbers. Cancelled
// and deadline-exceeded jobs still carry their best-so-far circuit,
// whose error is within the bound.
type JobResult struct {
	ID          string  `json:"id"`
	BLIF        string  `json:"blif"`
	Error       float64 `json:"error"`
	InitialAnds int     `json:"initial_ands"`
	NumAnds     int     `json:"num_ands"`
	Rounds      int     `json:"rounds"`
	LACsApplied int     `json:"lacs_applied"`
	StopReason  string  `json:"stop_reason"`
	RuntimeSec  float64 `json:"runtime_seconds"`
	// Resumed marks a result produced across at least one
	// checkpoint-resume cycle.
	Resumed bool `json:"resumed,omitempty"`
}

// EventType discriminates job events on the SSE stream.
type EventType string

// Event types: a job state transition, the run's opening metadata,
// one synthesis round, and the run's closing summary. The middle three
// carry the obs ledger event vocabulary verbatim. EventDropped is the
// synthetic final event a subscriber receives when the server drops it
// for not draining its channel: the stream ends with an explicit
// marker (re-subscribe and replay to recover) instead of a silent
// close indistinguishable from job completion.
const (
	EventState   EventType = "state"
	EventMeta    EventType = "meta"
	EventRound   EventType = "round"
	EventFinish  EventType = "finish"
	EventDropped EventType = "dropped"
)

// Event is one entry of a job's progress stream. Exactly one payload
// field matching Type is set.
type Event struct {
	Type   EventType       `json:"type"`
	Job    *Job            `json:"job,omitempty"`
	Meta   *obs.RunMeta    `json:"meta,omitempty"`
	Round  *obs.RoundEvent `json:"round,omitempty"`
	Finish *obs.RunFinish  `json:"finish,omitempty"`
}
