package accals_test

import (
	"os"
	"path/filepath"
	"testing"

	"accals"
)

// TestAnalyzeLegacyLedger: the public decoder and analyser accept both
// today's ledger and one written while speculative pipelining existed,
// whose rounds still carry the speculated/spec_hit fields.
func TestAnalyzeLegacyLedger(t *testing.T) {
	for _, path := range []string{
		filepath.Join("internal", "ledger", "testdata", "golden.jsonl"),
		filepath.Join("internal", "ledger", "testdata", "legacy-speculate", "ledger.jsonl"),
	} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := accals.DecodeLedger(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		traj, err := accals.AnalyzeLedger(events)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(traj.Rounds) != 3 || traj.Finish == nil || traj.IndpRatio() != 1 {
			t.Errorf("%s: %d rounds, finish %+v, L_indp ratio %v", path, len(traj.Rounds), traj.Finish, traj.IndpRatio())
		}
	}
}
