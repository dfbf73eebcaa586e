package maxerr

import (
	"testing"

	"accals/internal/circuits"
)

var certSink *Certificate

// BenchmarkCertify times one hard UNSAT certification: two
// structurally different 5-bit multipliers proved equal (bound 0).
// Almost all of its time is CDCL search, so ns/conflict tracks the
// solver's per-conflict cost.
func BenchmarkCertify(b *testing.B) {
	approx := circuits.ArrayMult(5)
	exact := circuits.WallaceMult(5)
	var conflicts int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cert, err := Certify(approx, exact, 0, 0)
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
