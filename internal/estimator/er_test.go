package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// rootOf returns the root mask of a full-width pass over p: all ones,
// with p's final-word mask.
func rootOf(p *simulate.Patterns) simulate.Vec {
	r := make(simulate.Vec, p.Words())
	for w := range r {
		r[w] = ^uint64(0)
	}
	r[len(r)-1] = p.LastMask()
	return r
}

// erringPatterns returns n patterns over ref's inputs on which g
// differs from ref in exactly the words w with erring(w) true. Each
// pattern is drawn from a random pool, split by whether some output of
// g differs from ref's; an erring word takes a differing pattern in its
// first lane and in about one lane of eight after it, every other
// lane an agreeing one. It reports false when the pool lacks a kind
// the words need.
func erringPatterns(g, ref *aig.Graph, n int, erring func(w int) bool, seed int64) (*simulate.Patterns, bool) {
	pool := simulate.Random(ref.NumPIs(), 2048, seed)
	got := simulate.MustRun(g, pool).POValues(g)
	want := simulate.MustRun(ref, pool).POValues(ref)
	var agree, differ []int
	for pat := 0; pat < pool.NumPatterns(); pat++ {
		d := false
		for j := range want {
			d = d || simulate.Bit(got[j], pat) != simulate.Bit(want[j], pat)
		}
		if d {
			differ = append(differ, pat)
		} else {
			agree = append(agree, pat)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	words := (n + 63) / 64
	rows := make([][]uint64, ref.NumPIs())
	for i := range rows {
		rows[i] = make([]uint64, words)
	}
	for q := 0; q < n; q++ {
		src := agree
		if erring(q/64) && (q%64 == 0 || rng.Intn(8) == 0) {
			src = differ
		}
		if len(src) == 0 {
			return nil, false
		}
		pat := src[rng.Intn(len(src))]
		for i, row := range rows {
			if simulate.Bit(pool.PIValue(i), pat) {
				row[q/64] |= 1 << uint(q%64)
			}
		}
	}
	p, err := simulate.FromWords(ref.NumPIs(), n, rows)
	if err != nil {
		panic(err)
	}
	return p, true
}

// anyDiffWords returns the words on which some output of res differs
// from the comparator's reference.
func anyDiffWords(g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator) []int {
	cur, exact := res.POValues(g), cmp.ExactPOs()
	var ws []int
	for w := 0; w < res.Patterns.Words(); w++ {
		var x uint64
		for j := range cur {
			x |= cur[j][w] ^ exact[j][w]
		}
		if x != 0 {
			ws = append(ws, w)
		}
	}
	return ws
}

// withOddOutputs returns g with three more outputs: a second output on
// output 0's node, the complement of an internal AND node and a
// primary input.
func withOddOutputs(g *aig.Graph) *aig.Graph {
	g.AddPO(g.PO(0), "dup")
	for id := g.NumNodes() / 2; id < g.NumNodes(); id++ {
		if g.IsAnd(id) {
			g.AddPO(aig.MakeLit(id, true), "inner")
			break
		}
	}
	g.AddPO(aig.MakeLit(g.PI(0), false), "wire")
	return g
}

// TestRunAllMatchesOutputUnion checks that runAll's mask at every node
// is the OR of run(j)'s over all outputs, bit for bit (a nil mask
// counts as zero), over the full words, over word ranges of the table
// and over a gathered word subset that ends with the partial last word.
// Each range and subset must also match the full words' masks at the
// words it holds.
func TestRunAllMatchesOutputUnion(t *testing.T) {
	graphs := map[string]*aig.Graph{
		"mult4":  withOddOutputs(circuits.ArrayMult(4)),
		"sin7":   withOddOutputs(circuits.SinCordic(7, 5)),
		"rand1":  withOddOutputs(circuits.RandomLogic("r", 8, 5, 150, 1)),
		"rand2":  withOddOutputs(circuits.RandomLogic("r", 10, 3, 400, 2)),
		"rand3":  circuits.RandomLogic("r", 6, 1, 40, 3),
		"mult3x": circuits.ArrayMult(3),
	}
	for name, g := range graphs {
		p := simulate.Random(g.NumPIs(), 1000, 7)
		res := simulate.MustRun(g, p)
		words := p.Words()
		full := rootOf(p)
		span := func(a, b int) []int {
			var ws []int
			for w := a; w < b; w++ {
				ws = append(ws, w)
			}
			return ws
		}
		// subset picks every third word and the last, side by side.
		var subset []int
		for w := 0; w < words-1; w += 3 {
			subset = append(subset, w)
		}
		subset = append(subset, words-1)
		gathered := make([]simulate.Vec, len(res.NodeVals))
		for id, v := range res.NodeVals {
			gathered[id] = make(simulate.Vec, len(subset))
			for i, w := range subset {
				gathered[id][i] = v[w]
			}
		}
		subRoot := make(simulate.Vec, len(subset))
		for i, w := range subset {
			subRoot[i] = full[w]
		}
		ref := &propagator{}
		ref.reset(g, res.NodeVals, 0, full)
		fullMasks := ref.runAll()
		for _, c := range []struct {
			what string
			vals []simulate.Vec
			w0   int
			root simulate.Vec
			// words maps each position of the range to its full word.
			words []int
		}{
			{"full", res.NodeVals, 0, full, span(0, words)},
			{"range", res.NodeVals, 5, full[5:12], span(5, 12)},
			{"tail range", res.NodeVals, 9, full[9:], span(9, words)},
			{"gathered", gathered, 0, subRoot, subset},
		} {
			all, one := &propagator{}, &propagator{}
			all.reset(g, c.vals, c.w0, c.root)
			one.reset(g, c.vals, c.w0, c.root)
			got := all.runAll()
			union := make([]simulate.Vec, g.NumNodes())
			for id := range union {
				union[id] = make(simulate.Vec, len(c.root))
			}
			for j := 0; j < g.NumPOs(); j++ {
				for id, m := range one.run(j) {
					for w := range m {
						union[id][w] |= m[w]
					}
				}
			}
			word := func(m simulate.Vec, w int) uint64 {
				if m == nil {
					return 0
				}
				return m[w]
			}
			for id, want := range union {
				for i, fw := range c.words {
					if x := word(got[id], i); x != want[i] || x != word(fullMasks[id], fw) {
						t.Fatalf("%s %s: node %d word %d: runAll %x, union of run(j) %x, full-word runAll %x", name, c.what, id, fw, x, want[i], word(fullMasks[id], fw))
					}
				}
			}
		}
	}
}

// FuzzERDeltaEMatchesReference checks every ER ΔE against the
// per-(output, candidate) any-diff rows, bit for bit, at one and two
// workers. Each input is a random-logic reference, an approximation of
// it with up to three fuzzed LACs applied, and a fuzzed pattern count
// (mostly leaving a partial last word) whose patterns make the base
// err on the words whose bit of erring (word mod 64) is set, as far as
// the LACs allow.
func FuzzERDeltaEMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(120), uint8(3), uint16(1000), uint8(0x15), uint64(0x8421))
	f.Add(int64(2), uint16(300), uint8(5), uint16(200), uint8(0x07), uint64(0))
	f.Add(int64(3), uint16(60), uint8(1), uint16(64), uint8(0x01), ^uint64(0))
	f.Add(int64(4), uint16(200), uint8(8), uint16(777), uint8(0x3f), uint64(0x1000))
	f.Add(int64(5), uint16(90), uint8(2), uint16(37), uint8(0x09), uint64(1))
	f.Fuzz(func(t *testing.T, seed int64, ands uint16, outs uint8, pats uint16, pick uint8, erring uint64) {
		ref := circuits.RandomLogic("fuzz", 6+int(uint64(seed)%5), 1+int(outs)%8, 2+int(ands)%300, seed)
		n := 1 + int(pats)%1500
		pool := simulate.Random(ref.NumPIs(), 256, seed)
		all := lac.Generate(ref, simulate.MustRun(ref, pool), lac.Config{EnableResub: true})
		// pick selects up to three LACs with distinct targets, two bits
		// each: 0 skips, 1..3 takes the candidate that far past the last.
		var chosen []*lac.LAC
		used := map[int]bool{}
		at := int(uint64(seed) % 17)
		for b := 0; b < 3 && len(all) > 0; b++ {
			step := int(pick>>(2*b)) & 3
			if step == 0 {
				continue
			}
			at = (at + step*7) % len(all)
			if l := all[at]; !used[l.Target] {
				used[l.Target] = true
				chosen = append(chosen, l)
			}
		}
		g := lac.Apply(ref, chosen)
		p, ok := erringPatterns(g, ref, n, func(w int) bool { return erring>>uint(w%64)&1 != 0 }, seed)
		if !ok {
			// The LACs err on every pattern of the pool or on none:
			// take what random patterns give.
			p = simulate.Random(ref.NumPIs(), n, seed)
		}
		res := simulate.MustRun(g, p)
		cmp := errmetric.NewComparator(errmetric.ER, ref, p)
		cands := lac.Generate(g, res, lac.Config{EnableResub: true})
		if len(cands) == 0 {
			return
		}
		want, _ := refERDeltaE(g, res, cmp, cands)
		wantErr := cmp.ErrorFromPOs(res.POValues(g))
		for _, workers := range []int{1, 2} {
			what := fmt.Sprintf("workers=%d, %d patterns, erring words %v", workers, n, anyDiffWords(g, res, cmp))
			if got := New(workers).EstimateAllRec(g, res, cmp, cands, nil); math.Float64bits(got) != math.Float64bits(wantErr) {
				t.Fatalf("%s: base error %v, ErrorFromPOs %v", what, got, wantErr)
			}
			for i, l := range cands {
				if math.Float64bits(l.DeltaE) != math.Float64bits(want[i]) {
					t.Fatalf("%s: cand %d (%v): DeltaE %v, any-diff rows %v", what, i, l, l.DeltaE, want[i])
				}
			}
		}
	})
}
