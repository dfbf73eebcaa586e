package lac

import (
	"testing"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/simulate"
)

func genOn(t *testing.T, g *aig.Graph, cfg Config) []*LAC {
	t.Helper()
	p := simulate.NewPatterns(g.NumPIs(), 512, 1)
	res := simulate.MustRun(g, p)
	return Generate(g, res, cfg)
}

func TestGenerateInvariants(t *testing.T) {
	g := circuits.ArrayMult(4)
	cands := genOn(t, g, Config{EnableResub: true, MinGain: 1})
	if len(cands) == 0 {
		t.Fatal("no candidates on a multiplier")
	}
	for _, l := range cands {
		if !g.IsAnd(l.Target) {
			t.Fatalf("%v: target is not an AND node", l)
		}
		for _, sn := range l.SNs {
			if sn >= l.Target {
				t.Fatalf("%v: SN %d not before target %d", l, sn, l.Target)
			}
			if sn == 0 {
				t.Fatalf("%v: constant node used as SN", l)
			}
		}
		if l.Gain < 1 {
			t.Fatalf("%v: gain below MinGain", l)
		}
		switch l.Fn.Kind {
		case FnConst0, FnConst1:
			if len(l.SNs) != 0 {
				t.Fatalf("%v: const LAC with SNs", l)
			}
		case FnWire:
			if len(l.SNs) != 1 {
				t.Fatalf("%v: wire LAC needs 1 SN", l)
			}
		case FnAnd, FnXor:
			if len(l.SNs) != 2 {
				t.Fatalf("%v: resub LAC needs 2 SNs", l)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := circuits.CLA(8)
	a := genOn(t, g, Config{EnableResub: true})
	b := genOn(t, g, Config{EnableResub: true})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("candidate %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGenerateRespectsMaxPerTarget(t *testing.T) {
	g := circuits.ArrayMult(4)
	cands := genOn(t, g, Config{EnableResub: true, MaxPerTarget: 2})
	perTarget := map[int]int{}
	for _, l := range cands {
		perTarget[l.Target]++
		if perTarget[l.Target] > 2 {
			t.Fatalf("target %d has more than 2 candidates", l.Target)
		}
	}
}

func TestGenerateAppliesCleanly(t *testing.T) {
	// Every generated candidate must produce a valid circuit with an
	// unchanged interface when applied alone.
	g := circuits.RCA(4)
	cands := genOn(t, g, Config{EnableResub: true})
	for _, l := range cands {
		ng := Apply(g, []*LAC{l})
		if err := ng.Check(); err != nil {
			t.Fatalf("LAC %v broke the graph: %v", l, err)
		}
		if ng.NumPIs() != g.NumPIs() || ng.NumPOs() != g.NumPOs() {
			t.Fatalf("LAC %v changed the interface", l)
		}
		if ng.NumAnds() > g.NumAnds() {
			t.Fatalf("LAC %v grew the circuit: %d -> %d ANDs", l, g.NumAnds(), ng.NumAnds())
		}
	}
}

func TestGenerateGainIsConservative(t *testing.T) {
	// The actual node saving must be at least ~the estimated gain for
	// single-LAC application on a tree-ish circuit. Allow slack for
	// strash sharing but never allow growth.
	g := circuits.WallaceMult(4)
	cands := genOn(t, g, Config{EnableResub: true})
	grew := 0
	for _, l := range cands {
		ng := Apply(g, []*LAC{l})
		if ng.NumAnds() > g.NumAnds() {
			grew++
		}
	}
	if grew > 0 {
		t.Fatalf("%d candidates grew the circuit", grew)
	}
}

func TestDefaultConfigScales(t *testing.T) {
	small := DefaultConfig(100)
	large := DefaultConfig(10000)
	if small.MaxDivisors <= large.MaxDivisors && small.MaxPerTarget <= large.MaxPerTarget {
		t.Fatal("large circuits should get tighter budgets")
	}
	if small.EnableResub || large.EnableResub {
		t.Fatal("resub is opt-in (see Config.EnableResub)")
	}
}

func TestConstCandidatesAlwaysPresent(t *testing.T) {
	g := aig.New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	g.AddPO(g.And(a, b), "y")
	cands := genOn(t, g, Config{})
	hasConst := false
	for _, l := range cands {
		if l.Fn.Kind == FnConst0 || l.Fn.Kind == FnConst1 {
			hasConst = true
		}
	}
	if !hasConst {
		t.Fatal("constant LACs missing")
	}
}

func TestIsNoopDetectsSelfRebuild(t *testing.T) {
	g := aig.New("t")
	a := g.AddPI("a")
	b := g.AddPI("b")
	// Xor returns a complemented literal: the underlying node computes
	// XNOR(a, b). Rebuilding that node's value needs FnXor+OutC.
	ab := g.Xor(a, b)
	g.AddPO(ab, "s")
	target := ab.Node()

	noop := &LAC{Target: target, SNs: []int{a.Node(), b.Node()}, Fn: Fn{Kind: FnXor, OutC: true}, Gain: 1}
	if !isNoop(g, noop.Target, noop.SNs, noop.Fn) {
		t.Fatal("XNOR self-rebuild not detected as a no-op")
	}
	// The uncomplemented variant resolves to !target: a different
	// literal (and it would never have zero deviation anyway).
	inv := &LAC{Target: target, SNs: []int{a.Node(), b.Node()}, Fn: Fn{Kind: FnXor}, Gain: 1}
	if isNoop(g, inv.Target, inv.SNs, inv.Fn) {
		t.Fatal("complement-valued rebuild wrongly flagged")
	}
	// A genuinely different function is not a no-op.
	and := &LAC{Target: target, SNs: []int{a.Node(), b.Node()}, Fn: Fn{Kind: FnAnd}, Gain: 1}
	if isNoop(g, and.Target, and.SNs, and.Fn) {
		t.Fatal("AND flagged as no-op of an XNOR node")
	}
	// A plain AND self-rebuild is also caught.
	g2 := aig.New("t2")
	c := g2.AddPI("c")
	d := g2.AddPI("d")
	e := g2.AddPI("e")
	inner := g2.And(c, d)
	outer := g2.And(inner, e)
	g2.AddPO(outer, "y")
	noop2 := &LAC{Target: outer.Node(), SNs: []int{inner.Node(), e.Node()}, Fn: Fn{Kind: FnAnd}, Gain: 1}
	if !isNoop(g2, noop2.Target, noop2.SNs, noop2.Fn) {
		t.Fatal("AND self-rebuild not detected")
	}
}

func TestGenerateSkipsNoopResubs(t *testing.T) {
	// On a multiplier with resub enabled, no generated candidate may
	// be a structural self-rebuild.
	g := circuits.ArrayMult(4)
	p := simulate.NewPatterns(g.NumPIs(), 512, 1)
	res := simulate.MustRun(g, p)
	cands := Generate(g, res, Config{EnableResub: true, EnableResub3: true})
	for _, l := range cands {
		switch l.Fn.Kind {
		case FnAnd, FnXor, FnMux, FnMaj:
			if isNoop(g, l.Target, l.SNs, l.Fn) {
				t.Fatalf("no-op candidate generated: %v", l)
			}
		}
	}
}

func TestGenerateTripleCandidatesValid(t *testing.T) {
	// Ternary resubstitution needs targets with MFFC > muxCost, which
	// well-shared circuits rarely have; scan a few benchmarks until
	// some are found.
	found := false
	for _, name := range []string{"mtp8", "c3540", "alu2"} {
		g, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := simulate.NewPatterns(g.NumPIs(), 512, 1)
		res := simulate.MustRun(g, p)
		cands := Generate(g, res, Config{EnableResub: true, EnableResub3: true, MaxPerTarget: 12})
		for _, l := range cands {
			if l.Fn.Kind != FnMux && l.Fn.Kind != FnMaj {
				continue
			}
			found = true
			if len(l.SNs) != 3 {
				t.Fatalf("ternary LAC with %d SNs", len(l.SNs))
			}
			ng := Apply(g, []*LAC{l})
			if err := ng.Check(); err != nil {
				t.Fatalf("LAC %v broke graph: %v", l, err)
			}
			if ng.NumAnds() > g.NumAnds() {
				t.Fatalf("LAC %v grew the circuit", l)
			}
		}
	}
	if !found {
		t.Fatal("no ternary candidates generated with EnableResub3 on any benchmark")
	}
}

// TestGenerateTargetsNeverNil pins the contract the incremental
// Generator relies on: a target whose candidates are all filtered out
// still gets a non-nil, empty list, because nil means "not generated".
func TestGenerateTargetsNeverNil(t *testing.T) {
	g := circuits.ArrayMult(4)
	res := simulate.MustRun(g, simulate.NewPatterns(g.NumPIs(), 512, 1))
	refs := g.RefCounts()
	for _, workers := range []int{1, 2} {
		cfg := resolve(Config{MinGain: 1 << 30, Workers: workers}, g.NumAnds())
		for i, cands := range generateTargets(g, res, cfg, liveTargets(g, refs), refs, buildSignatureIndex(g, res)) {
			if cands == nil || len(cands) != 0 {
				t.Fatalf("workers=%d: target %d list = %v, want non-nil and empty", workers, i, cands)
			}
		}
	}
}

// generateInput simulates a registry circuit under 8192 patterns, the
// synthesis default, for the generation benchmarks and allocation pins.
func generateInput(tb testing.TB, name string) (*aig.Graph, *simulate.Result) {
	tb.Helper()
	g, err := circuits.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return g, simulate.MustRun(g, simulate.NewPatterns(g.NumPIs(), 8192, 1))
}

// BenchmarkGenerate times one full candidate generation at workers 1
// under the default config: mtp8 (the NMED workload's multiplier), sin
// (5,251 ANDs, the largest synthbench circuit) and wal8.
func BenchmarkGenerate(b *testing.B) {
	for _, name := range []string{"mtp8", "sin", "wal8"} {
		b.Run(name, func(b *testing.B) {
			g, res := generateInput(b, name)
			cfg := Config{Workers: 1}
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n = len(Generate(g, res, cfg))
			}
			b.ReportMetric(float64(n), "cands/op")
		})
	}
}

// TestGenerateAllocsFlat pins that a generation call's allocations do
// not grow with the circuit: per-target work runs in reused per-shard
// scratch, and the kept LACs come from slabs. mtp8 (624 ANDs) and sin
// (5,251 ANDs) stay under one small bound.
func TestGenerateAllocsFlat(t *testing.T) {
	const bound = 100
	for _, name := range []string{"mtp8", "sin"} {
		g, res := generateInput(t, name)
		cfg := Config{Workers: 1}
		if n := testing.AllocsPerRun(2, func() { Generate(g, res, cfg) }); n > bound {
			t.Errorf("%s: %.0f allocations per Generate call, want at most %d", name, n, bound)
		} else {
			t.Logf("%s: %.0f allocations per Generate call", name, n)
		}
	}
}
