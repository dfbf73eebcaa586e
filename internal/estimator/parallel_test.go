package estimator

import (
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// TestEstimatorMatchesSequential checks that sharded estimation is
// bit-identical (exact float equality) to the sequential path for
// every metric family and several worker counts.
func TestEstimatorMatchesSequential(t *testing.T) {
	g := circuits.ArrayMult(4)
	for _, kind := range []errmetric.Kind{errmetric.ER, errmetric.MHD, errmetric.NMED, errmetric.MRED, errmetric.MaxED} {
		res, cmp, cands := setup(t, g, kind)
		want := make([]float64, len(cands))
		wantErr := New(1).EstimateAllRec(g, res, cmp, cands, nil)
		for i, l := range cands {
			want[i] = l.DeltaE
		}
		for _, workers := range []int{2, 3, 4, 8, 1000} {
			for i := range cands {
				cands[i].DeltaE = 0
			}
			e := New(workers)
			gotErr := e.EstimateAllRec(g, res, cmp, cands, nil)
			if gotErr != wantErr {
				t.Fatalf("%v workers=%d: current error %g, want %g", kind, workers, gotErr, wantErr)
			}
			for i, l := range cands {
				if l.DeltaE != want[i] {
					t.Fatalf("%v workers=%d cand %d (%v): DeltaE %g, want %g", kind, workers, i, l, l.DeltaE, want[i])
				}
			}
		}
	}
}

// TestEstimatorReuseAcrossRounds checks that an Estimator's recycled
// propagators and arenas stay correct across rounds with changing
// graphs, metrics, pattern sizes and candidate counts. The word-level
// rounds include a smaller NMED round after a larger one, so a target
// number or mask slot left over from an earlier round fails it.
func TestEstimatorReuseAcrossRounds(t *testing.T) {
	e := New(4)
	rounds := []struct {
		g    *aig.Graph
		kind errmetric.Kind
		pats int
	}{
		{circuits.ArrayMult(4), errmetric.ER, 1024},
		{circuits.CLA(6), errmetric.MHD, 500},
		{circuits.ArrayMult(3), errmetric.NMED, 1024},
		{circuits.RCA(8), errmetric.ER, 333},
		{circuits.ArrayMult(5), errmetric.NMED, 2048},
		{circuits.ArrayMult(3), errmetric.NMED, 700},
		{circuits.RCA(8), errmetric.MRED, 1024},
		{circuits.ArrayMult(4), errmetric.MaxED, 333},
		{circuits.CLA(6), errmetric.MaxED, 1024},
	}
	for round, rc := range rounds {
		p := simulate.NewPatterns(rc.g.NumPIs(), rc.pats, 3)
		cmp := errmetric.NewComparator(rc.kind, rc.g, p)
		res := simulate.MustRun(rc.g, p)
		cands := lac.Generate(rc.g, res, lac.Config{EnableResub: true})
		if len(cands) == 0 {
			t.Fatalf("round %d: no candidates", round)
		}
		e.EstimateAllRec(rc.g, res, cmp, cands, nil)
		got := make([]float64, len(cands))
		for i, l := range cands {
			got[i] = l.DeltaE
			l.DeltaE = 0
		}
		New(1).EstimateAllRec(rc.g, res, cmp, cands, nil)
		for i, l := range cands {
			if got[i] != l.DeltaE {
				t.Fatalf("round %d cand %d: reused estimator %g, fresh %g", round, i, got[i], l.DeltaE)
			}
		}
	}
}

// TestEstimatorExactMatchesSequential checks the sharded exact mode.
func TestEstimatorExactMatchesSequential(t *testing.T) {
	g := circuits.ArrayMult(3)
	res, cmp, cands := setup(t, g, errmetric.NMED)
	want := make([]float64, len(cands))
	New(1).EstimateAllExactRec(g, res, cmp, cands, nil)
	for i, l := range cands {
		want[i] = l.DeltaE
		l.DeltaE = 0
	}
	New(4).EstimateAllExactRec(g, res, cmp, cands, nil)
	for i, l := range cands {
		if l.DeltaE != want[i] {
			t.Fatalf("cand %d: parallel exact %g, sequential %g", i, l.DeltaE, want[i])
		}
	}
}

// TestResimulateWithSetMatchesApply checks that multi-LAC overlay
// resimulation is bit-identical to building and fully simulating the
// rewritten circuit — including sets where one LAC's substitute nodes
// lie inside another LAC's fanout cone.
func TestResimulateWithSetMatchesApply(t *testing.T) {
	g := circuits.ArrayMult(4)
	p := simulate.Exhaustive(g.NumPIs())
	res := simulate.MustRun(g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})

	// Build several conflict-free sets of increasing size: distinct
	// targets, taken across the candidate list.
	var sets [][]*lac.LAC
	for _, size := range []int{1, 2, 3, 5} {
		used := map[int]bool{}
		var set []*lac.LAC
		for _, l := range cands {
			if used[l.Target] {
				continue
			}
			used[l.Target] = true
			set = append(set, l)
			if len(set) == size {
				break
			}
		}
		if len(set) == size {
			sets = append(sets, set)
		}
	}
	if len(sets) < 3 {
		t.Fatal("not enough candidate sets")
	}
	for si, set := range sets {
		fast := ResimulateWithSet(g, res, set)
		applied := lac.Apply(g, set)
		full := simulate.MustRun(applied, p).POValues(applied)
		for j := range fast {
			for w := range fast[j] {
				if fast[j][w] != full[j][w] {
					t.Fatalf("set %d (size %d): PO %d word %d: %x vs %x", si, len(set), j, w, fast[j][w], full[j][w])
				}
			}
		}
	}
}

// TestResimulateWithSetEmpty checks the empty-set edge case.
func TestResimulateWithSetEmpty(t *testing.T) {
	g := circuits.RCA(4)
	p := simulate.Exhaustive(g.NumPIs())
	res := simulate.MustRun(g, p)
	pos := ResimulateWithSet(g, res, nil)
	want := res.POValues(g)
	for j := range pos {
		for w := range pos[j] {
			if pos[j][w] != want[j][w] {
				t.Fatalf("empty set changed PO %d", j)
			}
		}
	}
}
