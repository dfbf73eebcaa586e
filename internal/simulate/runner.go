package simulate

import (
	"fmt"

	"accals/internal/aig"
	"accals/internal/obs"
	"accals/internal/par"
	"accals/internal/runctl"
)

// minWordsPerShard is the minimum number of 64-bit pattern words a
// sweep shard must carry (see par.BlocksMin); tiny pattern sets run on
// fewer goroutines than the worker budget allows.
const minWordsPerShard = 16

// andJob is one AND node's evaluation, flattened for the sharded
// sweep: destination and fanin vectors plus a complement mode. A dense
// job list lets every worker scan straight through the AND nodes
// without re-deriving kinds and literals per word block.
type andJob struct {
	v, a, b Vec
	mode    uint8 // bit 0: fanin0 complemented, bit 1: fanin1 complemented
}

// Runner evaluates graphs under a fixed worker budget, sharding the
// bit-parallel sweep by 64-bit word blocks: signal evaluation is
// word-local (each packed word depends only on the same word of the
// fanins), so every worker can sweep the whole graph over a disjoint
// word range with no synchronisation until join. Shard boundaries are
// fixed by (workers, word count) alone, so the result is bit-identical
// to the sequential sweep at any worker count.
//
// The Runner pools its backing slab (one allocation covering every
// node vector) and the NodeVals header array across calls: a loop
// that Releases the previous round's Result before the next Run
// reaches near-zero steady-state allocation. Calls on one Runner must
// be serialized — at most one Run or Release at a time, though the
// caller may hand the Runner between goroutines with a happens-before
// edge.
type Runner struct {
	workers  int
	slabs    par.SlabPool
	valsFree [][]Vec
	jobs     []andJob
}

// NewRunner returns a Runner with the given worker budget (see
// par.Resolve: <= 0 means all CPUs, 1 means the sequential path).
func NewRunner(workers int) *Runner {
	return &Runner{workers: par.Resolve(workers)}
}

// Workers returns the resolved worker count.
func (r *Runner) Workers() int { return r.workers }

// Run simulates g under the pattern set, like the package-level Run
// but sharded across the Runner's workers and backed by the slab
// pool. The returned Result is valid until it is passed to Release;
// callers that retain a result across rounds simply never Release it.
func (r *Runner) Run(g *aig.Graph, p *Patterns) (*Result, error) {
	return r.RunRec(g, p, nil)
}

// RunRec is Run with instrumentation: per-shard busy times and the
// region's worker utilization feed rec's simulate-phase histograms.
// rec may be nil.
func (r *Runner) RunRec(g *aig.Graph, p *Patterns, rec *obs.Recorder) (*Result, error) {
	if g.NumPIs() != p.numPIs {
		return nil, fmt.Errorf("simulate: circuit has %d PIs but patterns were built for %d: %w", g.NumPIs(), p.numPIs, runctl.ErrInterfaceMismatch)
	}
	n := g.NumNodes()
	words := p.words
	vals := r.getVals(n)

	// One slab backs the constant node plus every AND vector; the
	// sweep assigns (never ORs into) each word, so no zeroing is
	// needed beyond the constant-false vector.
	slab := r.slabs.Get((g.NumAnds() + 1) * words)
	zero := slab[:words]
	for w := range zero {
		zero[w] = 0
	}
	vals[0] = zero
	for i, id := range g.PIs() {
		vals[id] = p.piValues[i]
	}

	jobs := r.jobs[:0]
	off := words
	for id := 0; id < n; id++ {
		nd := g.NodeAt(id)
		if nd.Kind != aig.KindAnd {
			continue
		}
		v := Vec(slab[off : off+words])
		off += words
		vals[id] = v
		var mode uint8
		if nd.Fanin0.IsCompl() {
			mode |= 1
		}
		if nd.Fanin1.IsCompl() {
			mode |= 2
		}
		jobs = append(jobs, andJob{v: v, a: vals[nd.Fanin0.Node()], b: vals[nd.Fanin1.Node()], mode: mode})
	}
	r.jobs = jobs

	sweep := func(shard, w0, w1 int) {
		maskTail := w1 == words
		for _, j := range jobs {
			v, a, b := j.v, j.a, j.b
			switch j.mode {
			case 0:
				for w := w0; w < w1; w++ {
					v[w] = a[w] & b[w]
				}
			case 1:
				for w := w0; w < w1; w++ {
					v[w] = ^a[w] & b[w]
				}
			case 2:
				for w := w0; w < w1; w++ {
					v[w] = a[w] & ^b[w]
				}
			default:
				for w := w0; w < w1; w++ {
					v[w] = ^(a[w] | b[w])
				}
			}
			if maskTail {
				v[words-1] &= p.lastMask
			}
		}
	}
	// Cap fan-out so every shard sweeps at least minWordsPerShard words
	// (16 words = 1024 patterns): below that the goroutine handoff costs
	// more than the sweep it parallelizes. par.BlocksMin is a pure
	// function of (workers, words), so boundaries stay reproducible.
	blocks := par.BlocksMin(r.workers, words, minWordsPerShard)
	if rec != nil {
		t := par.ForTimed(blocks, words, sweep)
		rec.ObserveShards(obs.PhaseSimulate, t.Elapsed, t.Shards)
	} else {
		par.For(blocks, words, sweep)
	}

	return &Result{Patterns: p, NodeVals: vals, slab: slab}, nil
}

// Release returns res's backing buffers to the Runner's pool. The
// Result (and every vector in its NodeVals) must not be used
// afterwards. Results not produced by a Runner (package-level Run) are
// ignored, so callers can release unconditionally.
func (r *Runner) Release(res *Result) {
	if res == nil || res.slab == nil {
		return
	}
	r.slabs.Put(res.slab)
	r.valsFree = append(r.valsFree, res.NodeVals)
	res.slab = nil
	res.NodeVals = nil
}

// getVals returns a cleared node-value header array of length n,
// reusing a released one when possible.
func (r *Runner) getVals(n int) []Vec {
	if k := len(r.valsFree); k > 0 {
		vals := r.valsFree[k-1]
		r.valsFree = r.valsFree[:k-1]
		if cap(vals) >= n {
			vals = vals[:n]
			for i := range vals {
				vals[i] = nil
			}
			return vals
		}
	}
	return make([]Vec, n)
}
