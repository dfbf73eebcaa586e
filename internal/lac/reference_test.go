package lac

import (
	"fmt"
	"sort"
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/simulate"
)

// This file keeps a test-only copy of the straightforward generation
// path, as internal/sat keeps its reference solver: a map-based divisor
// BFS, a map-based signature index, one heap-allocated LAC per
// candidate ranked by sort.SliceStable, and every gain computed from
// the refs-increment definition (hold the SNs referenced, then size the
// target's MFFC). Generate must reproduce it LAC for LAC (sameLACs).

// refGenerate is the oracle for Generate.
func refGenerate(g *aig.Graph, res *simulate.Result, cfg Config) []*LAC {
	cfg = resolve(cfg, g.NumAnds())
	refs := g.RefCounts()
	var sigs *refSignatureIndex
	if cfg.GlobalWires > 0 {
		sigs = refBuildSignatureIndex(g, res)
	}
	npat := res.Patterns.NumPatterns()
	var out []*LAC
	for id := 0; id < g.NumNodes(); id++ {
		if !g.IsAnd(id) || refs[id] == 0 {
			continue
		}
		mffc := g.MFFCSize(id, refs)
		out = append(out, refGenerateForTarget(g, res, cfg, id, mffc, npat, sigs, refs)...)
	}
	return out
}

// refMFFCSizeExcluding is the MFFC size of id with the keep nodes held
// externally referenced: the area freed by replacing id with a
// function of the keep nodes.
func refMFFCSizeExcluding(g *aig.Graph, id int, refs []int, keep []int) int {
	for _, k := range keep {
		refs[k]++
	}
	size := g.MFFCSize(id, refs)
	for _, k := range keep {
		refs[k]--
	}
	return size
}

// refSignatureIndex buckets nodes by the first simulation word of
// their value.
type refSignatureIndex struct {
	buckets map[uint64][]int
}

func refBuildSignatureIndex(g *aig.Graph, res *simulate.Result) *refSignatureIndex {
	idx := &refSignatureIndex{buckets: make(map[uint64][]int)}
	for id := 1; id < g.NumNodes(); id++ {
		if g.NodeAt(id).Kind == aig.KindConst {
			continue
		}
		w := res.NodeVals[id][0]
		idx.buckets[w] = append(idx.buckets[w], id)
	}
	return idx
}

// candidatesFor returns up to 2·limit global wire candidates for the
// target: bucket members before it, closest first, in the matching
// phase and then the complemented one.
func (idx *refSignatureIndex) candidatesFor(res *simulate.Result, target int, limit int) []wireCand {
	var out []wireCand
	val := res.NodeVals[target]
	scan := func(bucket []int, compl bool) {
		lo := sort.SearchInts(bucket, target)
		for k := lo - 1; k >= 0 && lo-k <= maxBucketScan && len(out) < limit*2; k-- {
			out = append(out, wireCand{node: bucket[k], compl: compl})
		}
	}
	mask := ^uint64(0)
	if res.Patterns.Words() == 1 {
		mask = res.Patterns.LastMask()
	}
	scan(idx.buckets[val[0]], false)
	scan(idx.buckets[^val[0]&mask], true)
	return out
}

// refCandidate pairs a LAC with its deviation count.
type refCandidate struct {
	lac *LAC
	dev int
}

func refGenerateForTarget(g *aig.Graph, res *simulate.Result, cfg Config, id, mffc, npat int, sigs *refSignatureIndex, refs []int) []*LAC {
	val := res.NodeVals[id]
	ones := simulate.PopCount(val)
	var cands []refCandidate

	add := func(l *LAC, dev int) {
		if l.Gain < cfg.MinGain {
			return
		}
		if dev == 0 {
			switch l.Fn.Kind {
			case FnAnd, FnXor, FnMux, FnMaj:
				if isNoop(g, l.Target, l.SNs, l.Fn) {
					return
				}
			}
		}
		cands = append(cands, refCandidate{l, dev})
	}

	add(&LAC{Target: id, Fn: Fn{Kind: FnConst0}, Gain: mffc}, ones)
	add(&LAC{Target: id, Fn: Fn{Kind: FnConst1}, Gain: mffc}, npat-ones)

	divs := refCollectDivisors(g, id, cfg)

	for _, d := range divs {
		dist := xorPopCount(val, res.NodeVals[d], res.Patterns.LastMask())
		gain := refMFFCSizeExcluding(g, id, refs, []int{d})
		if dist <= npat-dist {
			add(&LAC{Target: id, SNs: []int{d}, Fn: Fn{Kind: FnWire}, Gain: gain}, dist)
		} else {
			add(&LAC{Target: id, SNs: []int{d}, Fn: Fn{Kind: FnWire, C0: true}, Gain: gain}, npat-dist)
		}
	}

	if sigs != nil && cfg.GlobalWires > 0 {
		n := g.NodeAt(id)
		f0, f1 := n.Fanin0.Node(), n.Fanin1.Node()
		seenDiv := make(map[int]bool, len(divs))
		for _, d := range divs {
			seenDiv[d] = true
		}
		kept := 0
		for _, wc := range sigs.candidatesFor(res, id, cfg.GlobalWires) {
			if kept >= cfg.GlobalWires {
				break
			}
			if wc.node == f0 || wc.node == f1 || seenDiv[wc.node] {
				continue
			}
			dist := xorPopCount(val, res.NodeVals[wc.node], res.Patterns.LastMask())
			if wc.compl {
				dist = npat - dist
			}
			add(&LAC{Target: id, SNs: []int{wc.node}, Fn: Fn{Kind: FnWire, C0: wc.compl}, Gain: refMFFCSizeExcluding(g, id, refs, []int{wc.node})}, dist)
			kept++
		}
	}

	if cfg.EnableResub && mffc > 1 {
		for i := 0; i < len(divs); i++ {
			for j := i + 1; j < len(divs); j++ {
				best, bestDev := bestPairFn(val, res.NodeVals[divs[i]], res.NodeVals[divs[j]], res.Patterns.LastMask(), npat)
				freed := refMFFCSizeExcluding(g, id, refs, []int{divs[i], divs[j]})
				gain := freed - 1
				if best.Kind == FnXor {
					gain = freed - xorCost
				}
				if gain < cfg.MinGain {
					continue
				}
				add(&LAC{Target: id, SNs: []int{divs[i], divs[j]}, Fn: best, Gain: gain}, bestDev)
			}
		}
	}

	if cfg.EnableResub3 && mffc > muxCost {
		d3 := divs
		lim := cfg.Resub3Divisors
		if lim <= 0 {
			lim = 8
		}
		if len(d3) > lim {
			d3 = d3[:lim]
		}
		vals := res.NodeVals
		for i := 0; i < len(d3); i++ {
			for j := i + 1; j < len(d3); j++ {
				for k := j + 1; k < len(d3); k++ {
					best, bestDev := bestTripleFn(val, vals[d3[i]], vals[d3[j]], vals[d3[k]], res.Patterns.LastMask(), npat)
					cost := muxCost
					if best.Kind == FnMaj {
						cost = majCost
					}
					gain := refMFFCSizeExcluding(g, id, refs, []int{d3[i], d3[j], d3[k]}) - cost
					if gain < cfg.MinGain {
						continue
					}
					add(&LAC{Target: id, SNs: []int{d3[i], d3[j], d3[k]}, Fn: best, Gain: gain}, bestDev)
				}
			}
		}
	}

	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].dev != cands[b].dev {
			return cands[a].dev < cands[b].dev
		}
		return cands[a].lac.Gain > cands[b].lac.Gain
	})
	resubQuota := cfg.MaxPerTarget / 2
	if resubQuota < 1 {
		resubQuota = 1
	}
	out := make([]*LAC, 0, cfg.MaxPerTarget)
	resubs := 0
	for _, c := range cands {
		if len(out) == cfg.MaxPerTarget {
			break
		}
		switch c.lac.Fn.Kind {
		case FnAnd, FnXor, FnMux, FnMaj:
			if resubs == resubQuota {
				continue
			}
			resubs++
		}
		out = append(out, c.lac)
	}
	return out
}

func refCollectDivisors(g *aig.Graph, id int, cfg Config) []int {
	type entry struct {
		node  int
		depth int
	}
	n := g.NodeAt(id)
	seen := map[int]bool{id: true}
	var window []int
	queue := []entry{{n.Fanin0.Node(), 1}, {n.Fanin1.Node(), 1}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if seen[e.node] || e.node == 0 {
			seen[e.node] = true
			continue
		}
		seen[e.node] = true
		window = append(window, e.node)
		if len(window) >= cfg.MaxDivisors*2 {
			break
		}
		nd := g.NodeAt(e.node)
		if nd.Kind == aig.KindAnd && e.depth < cfg.WindowDepth {
			queue = append(queue, entry{nd.Fanin0.Node(), e.depth + 1}, entry{nd.Fanin1.Node(), e.depth + 1})
		}
	}
	f0, f1 := n.Fanin0.Node(), n.Fanin1.Node()
	divs := window[:0]
	for _, d := range window {
		if d != f0 && d != f1 && d < id {
			divs = append(divs, d)
		}
	}
	sort.Ints(divs)
	if len(divs) > cfg.MaxDivisors {
		divs = divs[:cfg.MaxDivisors]
	}
	return divs
}

// referenceConfigs are the generation configs the oracle comparisons
// cover: the defaults, each resubstitution switch, global wires off,
// and a per-target cap tight enough for the resubstitution quota.
var referenceConfigs = []struct {
	name string
	cfg  Config
}{
	{"default", Config{}},
	{"resub", Config{EnableResub: true}},
	{"resub3", Config{EnableResub3: true}},
	{"noglobal", Config{GlobalWires: GlobalWiresOff}},
	{"max2", Config{MaxPerTarget: 2}},
}

func TestGenerateMatchesReference(t *testing.T) {
	circs := []string{"mtp8", "sin", "wal8", "alu4", "rca8"}
	graphs := map[string]*aig.Graph{"mult4": circuits.ArrayMult(4)}
	for _, name := range circs {
		g, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	for _, name := range append(circs, "mult4") {
		g := graphs[name]
		res := simulate.MustRun(g, simulate.NewPatterns(g.NumPIs(), 512, 1))
		for _, rc := range referenceConfigs {
			want := refGenerate(g, res, rc.cfg)
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", name, rc.name, workers), func(t *testing.T) {
					cfg := rc.cfg
					cfg.Workers = workers
					sameLACs(t, "Generate", Generate(g, res, cfg), want)
				})
			}
		}
	}
}

func FuzzGenerateMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(120), uint8(0), uint8(0))
	f.Add(int64(2), uint16(300), uint8(1), uint8(1))
	f.Add(int64(3), uint16(60), uint8(2), uint8(2))
	f.Add(int64(4), uint16(200), uint8(3), uint8(3))
	f.Add(int64(5), uint16(90), uint8(4), uint8(0))
	f.Add(int64(6), uint16(250), uint8(0x1f), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, ands uint16, cfgBits, patBits uint8) {
		g := circuits.RandomLogic("fuzz", 6+int(uint64(seed)%5), 3, 2+int(ands%400), seed)
		// Pattern counts below one word exercise the signature index's
		// tail mask; 200 leaves a partial last word.
		npat := [...]int{37, 64, 200, 512}[patBits%4]
		res := simulate.MustRun(g, simulate.NewPatterns(g.NumPIs(), npat, seed))
		var cfg Config
		if cfgBits&1 != 0 {
			cfg.EnableResub = true
		}
		if cfgBits&2 != 0 {
			cfg.EnableResub3 = true
		}
		if cfgBits&4 != 0 {
			cfg.GlobalWires = GlobalWiresOff
		}
		if cfgBits&8 != 0 {
			cfg.MaxPerTarget = 2
		}
		if cfgBits&16 != 0 {
			cfg.MaxDivisors = 4
		}
		want := refGenerate(g, res, cfg)
		for _, workers := range []int{1, 2} {
			cfg.Workers = workers
			sameLACs(t, fmt.Sprintf("workers=%d", workers), Generate(g, res, cfg), want)
		}
	})
}
