package ledger

import (
	"encoding/json"
	"fmt"
	"os"

	"accals/internal/obs"
)

// RunSummary is the bundle's summary.json (and the accals command's
// -summary output): the run's headline numbers plus the recorder's
// aggregate — phase time breakdown, guard counts, duel win rates —
// shaped for aggregation by experiment harnesses and for the offline
// report's phase-time section.
type RunSummary struct {
	Circuit        string  `json:"circuit"`
	Method         string  `json:"method"`
	Metric         string  `json:"metric"`
	Bound          float64 `json:"bound"`
	Error          float64 `json:"error"`
	InitialAnds    int     `json:"initial_ands"`
	FinalAnds      int     `json:"final_ands"`
	Rounds         int     `json:"rounds"`
	LACsApplied    int     `json:"lacs_applied"`
	RuntimeSeconds float64 `json:"runtime_seconds"`
	StopReason     string  `json:"stop_reason"`
	IndpWinRate    float64 `json:"indp_win_rate"`
	// Certified marks maximum-error runs whose final circuit carries a
	// proof of its worst-case bound; CertConflicts is the total SAT
	// solver effort the run's certifications spent.
	Certified     bool        `json:"certified,omitempty"`
	CertConflicts int64       `json:"cert_conflicts,omitempty"`
	Obs           obs.Summary `json:"obs"`
}

// ReadSummary decodes a summary.json.
func ReadSummary(path string) (*RunSummary, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s RunSummary
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("ledger: %s: %w", path, err)
	}
	return &s, nil
}

// ReadManifest decodes a manifest.json.
func ReadManifest(path string) (*Manifest, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("ledger: %s: %w", path, err)
	}
	return &m, nil
}
