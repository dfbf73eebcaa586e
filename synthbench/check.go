package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"accals/internal/aig"
	"accals/internal/aiger"
	"accals/internal/circuits"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/runctl"
	"accals/internal/simulate"
)

// checker verifies synthesis results independently of the run that
// produced them. Each check rebuilds the reference circuit and its
// pattern set from scratch rather than trusting the run's comparator.
type checker struct {
	w workload
	// first is the AIGER digest of the run's first result; every later
	// result of the same inputs must match it byte for byte.
	first string
}

func newChecker(w workload) *checker {
	return &checker{w: w}
}

// check returns every failed check of one synthesis result (none when
// it passes).
func (c *checker) check(res *core.Result) []string {
	var errs []string
	if res.StopReason == runctl.Failed {
		errs = append(errs, "synthesis stopped with reason failed")
	}
	errs = append(errs, c.checkCircuit(res.Final, res.Error)...)
	d, err := digest(res.Final)
	switch {
	case err != nil:
		errs = append(errs, err.Error())
	case c.first == "":
		c.first = d
	case d != c.first:
		errs = append(errs, fmt.Sprintf("result is not deterministic: AIGER digest %s, first result %s", d[:12], c.first[:12]))
	}
	return errs
}

// checkCircuit re-measures final's error against a freshly built
// reference and checks it against the bound and the reported error.
// Under MaxED the reference is exhaustive simulation of every input,
// which does not depend on the run's SAT certificates.
func (c *checker) checkCircuit(final *aig.Graph, reported float64) []string {
	w := c.w
	orig, err := circuits.ByName(w.circuit)
	if err != nil {
		return []string{err.Error()}
	}
	if final.NumPIs() != orig.NumPIs() || final.NumPOs() != orig.NumPOs() {
		return []string{fmt.Sprintf("interface changed: %d/%d PIs/POs, original %d/%d",
			final.NumPIs(), final.NumPOs(), orig.NumPIs(), orig.NumPOs())}
	}
	var pats *simulate.Patterns
	if w.metric == errmetric.MaxED {
		pats = simulate.Exhaustive(orig.NumPIs())
	} else {
		pats = w.options(0).Patterns(orig)
	}
	cmp, err := errmetric.NewComparatorChecked(w.metric, orig, pats)
	if err != nil {
		return []string{err.Error()}
	}
	e := cmp.Error(final)
	var errs []string
	if e > w.bound {
		errs = append(errs, fmt.Sprintf("re-measured %v error %g exceeds the bound %g", w.metric, e, w.bound))
	}
	if w.metric != errmetric.MaxED && e != reported {
		errs = append(errs, fmt.Sprintf("re-measured %v error %g differs from the reported %g", w.metric, e, reported))
	}
	return errs
}

// digest is the SHA-256 of g's binary AIGER encoding.
func digest(g *aig.Graph) (string, error) {
	var buf bytes.Buffer
	if err := aiger.WriteBinary(&buf, g); err != nil {
		return "", fmt.Errorf("encode result as AIGER: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// heldOutError scores final on a fresh random pattern set, as large as
// the synthesis's and drawn from seed, which the synthesis never saw. It is reported, not
// checked: a sampled bound need not hold off-sample. MaxED is already
// checked exhaustively, so it reports nothing.
func heldOutError(w workload, in *inputs, final *aig.Graph, seed int64) (float64, bool) {
	if w.metric == errmetric.MaxED {
		return 0, false
	}
	pats := simulate.Random(in.orig.NumPIs(), patterns, seed)
	cmp, err := errmetric.NewComparatorChecked(w.metric, in.orig, pats)
	if err != nil {
		return 0, false
	}
	return cmp.Error(final), true
}
