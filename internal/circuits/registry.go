package circuits

import (
	"fmt"
	"sort"

	"accals/internal/aig"
)

// Benchmark describes one named benchmark circuit.
type Benchmark struct {
	// Name is the benchmark identifier used throughout the experiments.
	Name string
	// Suite groups benchmarks as in the paper's Table I.
	Suite string
	// Build constructs the circuit.
	Build func() *aig.Graph
	// Arithmetic marks circuits whose outputs form a binary number,
	// enabling the word-level metrics NMED and MRED.
	Arithmetic bool
}

// Suites used in the paper's Table I.
const (
	SuiteISCAS  = "iscas"
	SuiteArith  = "arith"
	SuiteEPFL   = "epfl"
	SuiteLGSynt = "lgsynt91"
)

// registry lists every benchmark of the evaluation. The EPFL
// arithmetic circuits are generated at reduced widths so that the
// experiments complete on a single machine; the LGSynt91 and ISCAS
// random-logic circuits are seeded structural stand-ins (see
// DESIGN.md).
var registry = []Benchmark{
	// ISCAS-85 stand-ins and the small ALU.
	{Name: "alu4", Suite: SuiteISCAS, Build: ALU4},
	{Name: "c880", Suite: SuiteISCAS, Build: C880},
	{Name: "c1908", Suite: SuiteISCAS, Build: C1908},
	{Name: "c3540", Suite: SuiteISCAS, Build: C3540},

	// Small arithmetic. rca8 (17 PIs) is small enough for
	// exhaustive-simulation cross-checks of the certified maximum-error
	// flow, and one input too wide to be certified by simulation, so
	// SAT certifies it.
	{Name: "rca8", Suite: SuiteArith, Build: func() *aig.Graph { return RCA(8) }, Arithmetic: true},
	{Name: "rca32", Suite: SuiteArith, Build: func() *aig.Graph { return RCA(32) }, Arithmetic: true},
	{Name: "cla32", Suite: SuiteArith, Build: func() *aig.Graph { return CLA(32) }, Arithmetic: true},
	{Name: "ksa32", Suite: SuiteArith, Build: func() *aig.Graph { return KSA(32) }, Arithmetic: true},
	{Name: "mtp8", Suite: SuiteArith, Build: func() *aig.Graph { return ArrayMult(8) }, Arithmetic: true},
	{Name: "wal8", Suite: SuiteArith, Build: func() *aig.Graph { return WallaceMult(8) }, Arithmetic: true},

	// EPFL arithmetic at reduced widths.
	{Name: "div", Suite: SuiteEPFL, Build: func() *aig.Graph { return Divider(16) }},
	{Name: "log2", Suite: SuiteEPFL, Build: func() *aig.Graph { return Log2(12, 6) }},
	{Name: "sin", Suite: SuiteEPFL, Build: func() *aig.Graph { return SinCordic(12, 12) }},
	{Name: "sqrt", Suite: SuiteEPFL, Build: func() *aig.Graph { return Sqrt(32) }},
	{Name: "square", Suite: SuiteEPFL, Build: func() *aig.Graph { return Squarer(16) }},

	// LGSynt91 stand-ins (interface counts follow the originals).
	{Name: "alu2", Suite: SuiteLGSynt, Build: func() *aig.Graph { return RandomLogic("alu2", 10, 6, 400, 0xa1) }},
	{Name: "apex6", Suite: SuiteLGSynt, Build: func() *aig.Graph { return RandomLogic("apex6", 135, 99, 610, 0xa6) }},
	{Name: "frg2", Suite: SuiteLGSynt, Build: func() *aig.Graph { return RandomLogic("frg2", 143, 139, 700, 0xf2) }},
	{Name: "term1", Suite: SuiteLGSynt, Build: func() *aig.Graph { return RandomLogic("term1", 34, 10, 250, 0x71) }},
}

// ByName builds the named benchmark circuit. The graph's Name is set
// to the registry name (generators may embed widths, e.g. "div16").
func ByName(name string) (*aig.Graph, error) {
	for _, b := range registry {
		if b.Name == name {
			g := b.Build()
			g.Name = b.Name
			return g, nil
		}
	}
	return nil, fmt.Errorf("circuits: unknown benchmark %q (known: %v)", name, Names())
}

// Lookup returns the benchmark descriptor for name.
func Lookup(name string) (Benchmark, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("circuits: unknown benchmark %q", name)
}

// Names returns all benchmark names, sorted.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name
	}
	sort.Strings(out)
	return out
}

// Suite returns the benchmarks of one suite, in registry order.
func Suite(suite string) []Benchmark {
	var out []Benchmark
	for _, b := range registry {
		if b.Suite == suite {
			out = append(out, b)
		}
	}
	return out
}

// All returns every registered benchmark in registry order.
func All() []Benchmark {
	return append([]Benchmark(nil), registry...)
}
