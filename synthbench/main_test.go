package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// smokeRounds caps every synthesis of the smoke tests.
const smokeRounds = 2

// declared reads the metric names and units BENCHMARK.json declares
// for the given section ("end_to_end" or "per_layer").
func declared(t *testing.T, section string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[section], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestEveryMetricEmitted runs each workload with capped rounds in both
// modes and checks the final line reports exactly the declared
// metrics, with their declared units, and a clean outcome.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, mode := range []struct {
			trace   bool
			section string
		}{{false, "end_to_end"}, {true, "per_layer"}} {
			want := declared(t, mode.section)
			var buf bytes.Buffer
			cfg := config{workload: w, seed: 7, seconds: 0.001, trace: mode.trace, maxRounds: smokeRounds}
			if err := run(context.Background(), cfg, &buf); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, mode.trace, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var o outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
				t.Fatalf("%s trace=%v: last line is not the outcome: %v", w.name, mode.trace, err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < minReps {
				t.Errorf("%s trace=%v: outcome correct=%v attempted=%d failed=%d\n%s", w.name, mode.trace, o.Correct, o.Attempted, o.Failed, buf.String())
			}
			for name, unit := range want {
				m, ok := o.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, mode.trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", w.name, mode.trace, name, m.Unit, unit)
				}
			}
			for name := range o.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not declared in BENCHMARK.json", w.name, mode.trace, name)
				}
			}
		}
	}
}

// TestChecksTripOnCorruptedCircuit checks that a correct result passes
// the output checks and that flipping its most significant output
// fails both the error re-measurement and the determinism check.
func TestChecksTripOnCorruptedCircuit(t *testing.T) {
	for _, w := range workloads {
		in, err := setup(w)
		if err != nil {
			t.Fatal(err)
		}
		res := synthesize(context.Background(), w, in, w.options(1)).res
		chk := newChecker(w)
		if errs := chk.check(res); len(errs) > 0 {
			t.Fatalf("%s: a correct result failed its checks: %v", w.name, errs)
		}

		bad := *res
		bad.Final = res.Final.Clone()
		msb := bad.Final.NumPOs() - 1
		bad.Final.SetPO(msb, bad.Final.PO(msb).Not())
		errs := chk.check(&bad)
		joined := strings.Join(errs, "\n")
		if !strings.Contains(joined, "exceeds the bound") {
			t.Errorf("%s: corrupted circuit passed the error check: %v", w.name, errs)
		}
		if !strings.Contains(joined, "not deterministic") {
			t.Errorf("%s: corrupted circuit passed the determinism check: %v", w.name, errs)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2, 7, 5, 4, 6, 9, 8, 10}, 2.75, 5.5, 8.25},
		{[]float64{2}, 2, 2, 2},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
