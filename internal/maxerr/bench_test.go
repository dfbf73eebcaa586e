package maxerr

import (
	"testing"

	"accals/internal/circuits"
)

var certSink *Certificate

// BenchmarkCertify times one hard UNSAT certification by SAT: two
// structurally different 5-bit multipliers proved equal (bound 0).
// Their 10 inputs would make Certify sweep them, so the benchmark
// builds the miter and calls the SAT path directly, as Certify did
// before narrow circuits were swept. Almost all of its time is CDCL
// search, so ns/conflict tracks the solver's per-conflict cost.
func BenchmarkCertify(b *testing.B) {
	approx := circuits.ArrayMult(5)
	exact := circuits.WallaceMult(5)
	var conflicts int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := BuildMiter(approx, exact, 0)
		if err != nil {
			b.Fatal(err)
		}
		cert, err := certifyBySAT(m, 0, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !cert.Certified {
			b.Fatalf("equal multipliers not certified at bound 0: %+v", cert)
		}
		conflicts += cert.Conflicts
		certSink = cert
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(conflicts), "ns/conflict")
}

// BenchmarkCertifyExhaustive times one 16-input certification by
// exhaustive simulation: two 8-bit multipliers proved equal (bound 0),
// so the sweep runs through every chunk of the 2^16 inputs.
func BenchmarkCertifyExhaustive(b *testing.B) {
	approx := circuits.WallaceMult(8)
	exact := circuits.ArrayMult(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cert, err := Certify(approx, exact, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !cert.Certified || cert.Conflicts != 0 {
			b.Fatalf("equal multipliers not certified by simulation at bound 0: %+v", cert)
		}
		certSink = cert
	}
}
