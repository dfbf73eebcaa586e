package ledger

import (
	"errors"
	"fmt"
	"math"

	"accals/internal/obs"
)

// Trajectory is a decoded ledger reassembled into run order: the
// opening metadata, every round in sequence, and the closing outcome.
// It is the unit the offline report and the experiment harness consume.
type Trajectory struct {
	// Meta is the first RunMeta of the ledger (the original run's
	// configuration); Resumes counts the additional meta lines appended
	// by checkpoint resumes.
	Meta    obs.RunMeta
	Resumes int
	// Rounds holds every round event in emission order.
	Rounds []obs.RoundEvent
	// Finish is the closing event, nil when the ledger was cut off
	// before the run ended (a crash — still analysable).
	Finish *obs.RunFinish
}

// Analyze reassembles decoded events into a Trajectory. It requires at
// least one meta event and validates the stream shape (no rounds
// before the first meta, at most one finish).
func Analyze(events []Event) (*Trajectory, error) {
	t := &Trajectory{}
	seenMeta := false
	for i, ev := range events {
		switch ev.Type {
		case TypeMeta:
			if ev.Meta == nil {
				return nil, fmt.Errorf("ledger: event %d: meta line without meta payload", i)
			}
			if !seenMeta {
				t.Meta = *ev.Meta
				seenMeta = true
			} else {
				t.Resumes++
			}
		case TypeRound:
			if ev.Round == nil {
				return nil, fmt.Errorf("ledger: event %d: round line without round payload", i)
			}
			if !seenMeta {
				return nil, errors.New("ledger: round event before run meta")
			}
			t.Rounds = append(t.Rounds, *ev.Round)
		case TypeFinish:
			if ev.Finish == nil {
				return nil, fmt.Errorf("ledger: event %d: finish line without finish payload", i)
			}
			if t.Finish != nil {
				return nil, errors.New("ledger: multiple finish events")
			}
			f := *ev.Finish
			t.Finish = &f
		default:
			return nil, fmt.Errorf("ledger: event %d: unknown type %q", i, ev.Type)
		}
	}
	if !seenMeta {
		return nil, errors.New("ledger: no run meta event")
	}
	return t, nil
}

// IndpRatio returns the fraction of decision rounds won by the
// independent LAC set — the paper's Fig. 4 L_indp ratio, as a derived
// column of the ledger. The denominator matches core.Result.IndpRatio:
// multi-selection rounds that were not reverted.
func (t *Trajectory) IndpRatio() float64 {
	multi, indp := 0, 0
	for _, r := range t.Rounds {
		if r.Multi && !r.Reverted {
			multi++
			if r.PickedIndp {
				indp++
			}
		}
	}
	if multi == 0 {
		return 0
	}
	return float64(indp) / float64(multi)
}

// Duels counts the rounds in which both candidate sets were measured
// (DuelIndpErr and DuelRandErr present) and how many the independent
// set won.
func (t *Trajectory) Duels() (duels, indpWins int) {
	for _, r := range t.Rounds {
		if r.DuelIndpErr != nil && r.DuelRandErr != nil {
			duels++
			if r.PickedIndp {
				indpWins++
			}
		}
	}
	return duels, indpWins
}

// EstimatorAccuracy summarises the per-round gap between the estimated
// error of the applied set (Eq. (1)) and the measured error: the mean
// and maximum of |est − measured| over the n rounds that recorded both.
// Reverted rounds are included — their gap is exactly what triggered
// the guard, so hiding them would flatter the estimator.
type EstimatorAccuracy struct {
	Rounds  int
	MeanAbs float64
	MaxAbs  float64
	// MaxRound is the round number of the worst gap (-1 when no rounds).
	MaxRound int
}

// EstimatorAccuracy computes the estimated-vs-measured error summary.
func (t *Trajectory) EstimatorAccuracy() EstimatorAccuracy {
	acc := EstimatorAccuracy{MaxRound: -1}
	sum := 0.0
	for _, r := range t.Rounds {
		gap := math.Abs(r.EstErr - r.Error)
		sum += gap
		acc.Rounds++
		if gap > acc.MaxAbs || acc.MaxRound < 0 {
			acc.MaxAbs = gap
			acc.MaxRound = r.Round
		}
	}
	if acc.Rounds > 0 {
		acc.MeanAbs = sum / float64(acc.Rounds)
	}
	return acc
}

// Certification tallies the certified rounds of a maximum-error run:
// attempts is the number of rounds that went through certification,
// certified those whose bound was proved, and conflicts the total SAT
// solver effort (0 for rounds certified by exhaustive simulation). All
// zero for runs under the statistical metrics.
func (t *Trajectory) Certification() (attempts, certified int, conflicts int64) {
	for _, r := range t.Rounds {
		if r.Certified == nil {
			continue
		}
		attempts++
		if *r.Certified {
			certified++
		}
		conflicts += r.CertConflicts
	}
	return attempts, certified, conflicts
}

// Guards tallies guard and revert activations over the trajectory.
func (t *Trajectory) Guards() (singleLAC, reverts int) {
	for _, r := range t.Rounds {
		if r.GuardSingle {
			singleLAC++
		}
		if r.Reverted {
			reverts++
		}
	}
	return singleLAC, reverts
}

// FinalError returns the run's final accepted error: the finish
// event's when present, else the last accepted round's.
func (t *Trajectory) FinalError() float64 {
	if t.Finish != nil {
		return t.Finish.Error
	}
	if n := len(t.Rounds); n > 0 {
		return t.Rounds[n-1].Error
	}
	return 0
}
