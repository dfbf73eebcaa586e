package dispatch

import (
	"context"

	"net"
	"testing"
	"time"

	"accals/internal/aig"
	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/faultinject"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// startServer runs a Server on a loopback listener for the test's
// lifetime and returns its address.
func startServer(t *testing.T, workers int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		(&Server{Workers: workers}).Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

func setup(t *testing.T, g *aig.Graph, kind errmetric.Kind) (*simulate.Patterns, *simulate.Result, *errmetric.Comparator, []*lac.LAC) {
	t.Helper()
	p := simulate.NewPatterns(g.NumPIs(), 1<<11, 5)
	res := simulate.MustRun(g, p)
	cmp := errmetric.NewComparator(kind, g, p)
	cands := lac.Generate(g, res, lac.Config{EnableResub: true})
	if len(cands) < 8 {
		t.Fatalf("only %d candidates", len(cands))
	}
	return p, res, cmp, cands
}

func snapshot(lacs []*lac.LAC) []float64 {
	out := make([]float64, len(lacs))
	for i, l := range lacs {
		out[i] = l.DeltaE
	}
	return out
}

func clear(lacs []*lac.LAC) {
	for _, l := range lacs {
		l.DeltaE = 0
	}
}

// TestRemoteMatchesLocal is the tentpole property: remote evaluation
// is bit-identical to local across every metric family, fast and
// exact mode, and several evaluator counts (two evaluators may share
// one server process — each connection is its own session).
func TestRemoteMatchesLocal(t *testing.T) {
	addr := startServer(t, 1)
	g := circuits.ArrayMult(4)
	for _, kind := range []errmetric.Kind{errmetric.ER, errmetric.MHD, errmetric.NMED, errmetric.MRED} {
		p, res, cmp, cands := setup(t, g, kind)
		for _, exact := range []bool{false, true} {
			if exact && kind == errmetric.MRED {
				continue // exact mode covered per-kind below; trim runtime
			}
			est := estimator.New(1)
			want := localEval(est, g, res, cmp, cands, exact, nil)
			wantD := snapshot(cands)
			for _, evals := range []int{1, 2, 3} {
				addrs := make([]string, evals)
				for i := range addrs {
					addrs[i] = addr
				}
				pool := NewPool(addrs, kind, g, p, nil)
				pool.MinBatch = 1
				clear(cands)
				got := pool.EstimateAll(est, g, res, cmp, cands, exact, nil)
				if got != want {
					t.Fatalf("%v exact=%v evals=%d: current error %v, want %v", kind, exact, evals, got, want)
				}
				for i := range cands {
					if cands[i].DeltaE != wantD[i] {
						t.Fatalf("%v exact=%v evals=%d: cand %d DeltaE %v, want %v", kind, exact, evals, i, cands[i].DeltaE, wantD[i])
					}
				}
				pool.Close()
			}
		}
	}
}

// TestEpochSequence checks bit-identity across circuit changes: the
// pool must push a fresh epoch when the graph changes and keep serving
// the same graph without a re-push.
func TestEpochSequence(t *testing.T) {
	addr := startServer(t, 1)
	g := circuits.ArrayMult(4)
	kind := errmetric.NMED
	p, res, cmp, cands := setup(t, g, kind)
	pool := NewPool([]string{addr, addr}, kind, g, p, nil)
	pool.MinBatch = 1
	defer pool.Close()
	est := estimator.New(1)

	// Round 1 on g (twice: second call reuses the pushed epoch).
	for pass := 0; pass < 2; pass++ {
		clear(cands)
		pool.EstimateAll(est, g, res, cmp, cands, false, nil)
		got := snapshot(cands)
		clear(cands)
		localEval(est, g, res, cmp, cands, false, nil)
		for i, w := range snapshot(cands) {
			if got[i] != w {
				t.Fatalf("pass %d cand %d: %v != %v", pass, i, got[i], w)
			}
		}
	}

	// Round 2 on a rewritten circuit: new epoch, new candidates.
	g2 := lac.Apply(g, cands[:1])
	res2 := simulate.MustRun(g2, p)
	cmp2 := errmetric.NewComparator(kind, g, p)
	cands2 := lac.Generate(g2, res2, lac.Config{EnableResub: true})
	clear(cands2)
	pool.EstimateAll(est, g2, res2, cmp2, cands2, false, nil)
	got := snapshot(cands2)
	clear(cands2)
	localEval(est, g2, res2, cmp2, cands2, false, nil)
	for i, w := range snapshot(cands2) {
		if got[i] != w {
			t.Fatalf("epoch 2 cand %d: %v != %v", i, got[i], w)
		}
	}
}

// TestFailover checks that every injected transport fault — dial
// failure, send failure, torn frame, delayed response past the
// deadline, and no server at all — fails over to local evaluation
// with bit-identical results.
func TestFailover(t *testing.T) {
	addr := startServer(t, 1)
	g := circuits.ArrayMult(4)
	kind := errmetric.ER
	p, res, cmp, cands := setup(t, g, kind)
	est := estimator.New(1)
	want := localEval(est, g, res, cmp, cands, false, nil)
	wantD := snapshot(cands)

	check := func(t *testing.T, pool *Pool) {
		t.Helper()
		clear(cands)
		got := pool.EstimateAll(est, g, res, cmp, cands, false, nil)
		if got != want {
			t.Fatalf("current error %v, want %v", got, want)
		}
		for i := range cands {
			if cands[i].DeltaE != wantD[i] {
				t.Fatalf("cand %d: DeltaE %v, want %v", i, cands[i].DeltaE, wantD[i])
			}
		}
	}

	specs := []string{
		FaultConnect + ":error:1.0",
		FaultSend + ":error:1.0",
		FaultFrame + ":truncate:1.0:0.4",
		// Mid-batch flakiness: some slices fail, some succeed.
		FaultSend + ":error:0.5",
		FaultFrame + ":truncate:0.3:0.2",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			inj, err := faultinject.Parse(7, spec)
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool([]string{addr, addr, addr}, kind, g, p, inj)
			pool.MinBatch = 1
			defer pool.Close()
			// Several rounds so per-point RNG streams explore both
			// firing and passing, exercising close/re-dial/re-init.
			for round := 0; round < 4; round++ {
				check(t, pool)
			}
		})
	}

	t.Run("no-server", func(t *testing.T) {
		// A dead address: dial fails, everything runs locally.
		pool := NewPool([]string{"127.0.0.1:1"}, kind, g, p, nil)
		pool.MinBatch = 1
		pool.Timeout = 2 * time.Second
		defer pool.Close()
		check(t, pool)
	})

	t.Run("delayed-response", func(t *testing.T) {
		inj, err := faultinject.Parse(7, FaultRecvDelay+":delay:1.0:300ms")
		if err != nil {
			t.Fatal(err)
		}
		pool := NewPool([]string{addr}, kind, g, p, inj)
		pool.MinBatch = 1
		pool.Timeout = 50 * time.Millisecond
		defer pool.Close()
		check(t, pool)
	})
}

// TestSmallBatchStaysLocal checks the dispatch floor: batches below
// MinBatch per share never touch the wire.
func TestSmallBatchStaysLocal(t *testing.T) {
	g := circuits.ArrayMult(4)
	kind := errmetric.ER
	p, res, cmp, cands := setup(t, g, kind)
	// Point at a dead address: if the pool dispatched, evaluation
	// would still succeed via failover, but dialing a dead port with
	// the default timeout would stall the test — so assert quickly.
	pool := NewPool([]string{"127.0.0.1:1"}, kind, g, p, nil)
	pool.MinBatch = len(cands) // shares would each be < MinBatch
	pool.Timeout = time.Millisecond
	defer pool.Close()
	est := estimator.New(1)
	start := time.Now()
	pool.EstimateAll(est, g, res, cmp, cands, false, nil)
	if time.Since(start) > 5*time.Second {
		t.Fatal("small batch appears to have hit the network")
	}
}

// TestServerRejectsGarbage checks the server survives malformed
// traffic: bad frame types, eval before init, oversized prefixes.
func TestServerRejectsGarbage(t *testing.T) {
	addr := startServer(t, 1)
	dial := func() net.Conn {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		return nc
	}

	// Eval before init: error frame, then the server hangs up.
	nc := dial()
	writeFrame(nc, frameEval, encodeEval(1, modeFast, nil, 0, 0))
	typ, _, _, err := readFrame(nc)
	if err != nil || typ != frameError {
		t.Fatalf("eval-before-init: typ %d err %v, want error frame", typ, err)
	}
	nc.Close()

	// Unknown frame type.
	nc = dial()
	writeFrame(nc, 0x7f, []byte("junk"))
	typ, _, _, err = readFrame(nc)
	if err != nil || typ != frameError {
		t.Fatalf("unknown frame: typ %d err %v, want error frame", typ, err)
	}
	nc.Close()

	// Oversized length prefix: connection dropped without allocation.
	nc = dial()
	nc.Write([]byte{0xff, 0xff, 0xff, 0xff, frameInit})
	if _, _, _, err := readFrame(nc); err == nil {
		t.Fatal("oversized frame: server should hang up")
	}
	nc.Close()

	// The server must still serve real sessions afterwards.
	g := circuits.RCA(4)
	p, res, cmp, cands := setup(t, g, errmetric.ER)
	pool := NewPool([]string{addr}, errmetric.ER, g, p, nil)
	pool.MinBatch = 1
	defer pool.Close()
	est := estimator.New(1)
	want := localEval(est, g, res, cmp, cands, false, nil)
	clear(cands)
	if got := pool.EstimateAll(est, g, res, cmp, cands, false, nil); got != want {
		t.Fatalf("after garbage: %v != %v", got, want)
	}
}

// TestLACWireRoundTrip pins the candidate encoding across every
// function kind and complement combination.
func TestLACWireRoundTrip(t *testing.T) {
	var lacs []*lac.LAC
	mk := func(kind lac.FnKind, sns ...int) {
		for mask := 0; mask < 16; mask++ {
			lacs = append(lacs, &lac.LAC{
				Target: 100 + len(lacs),
				SNs:    append([]int(nil), sns...),
				Fn: lac.Fn{
					Kind: kind,
					C0:   mask&1 != 0,
					C1:   mask&2 != 0,
					C2:   mask&4 != 0,
					OutC: mask&8 != 0,
				},
			})
		}
	}
	mk(lac.FnConst0)
	mk(lac.FnConst1)
	mk(lac.FnWire, 3)
	mk(lac.FnAnd, 4, 9)
	mk(lac.FnXor, 1, 2)
	mk(lac.FnMux, 5, 6, 7)
	mk(lac.FnMaj, 8, 9, 10)

	epoch, mode, got, _, err := decodeEval(encodeEval(42, modeExact, lacs, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 42 || mode != modeExact {
		t.Fatalf("epoch %d mode %d", epoch, mode)
	}
	if len(got) != len(lacs) {
		t.Fatalf("%d candidates, want %d", len(got), len(lacs))
	}
	for i, l := range lacs {
		g := got[i]
		if g.Target != l.Target || g.Fn != l.Fn || len(g.SNs) != len(l.SNs) {
			t.Fatalf("cand %d: %v vs %v", i, g, l)
		}
		for j := range l.SNs {
			if g.SNs[j] != l.SNs[j] {
				t.Fatalf("cand %d SN %d: %d vs %d", i, j, g.SNs[j], l.SNs[j])
			}
		}
	}
}

// TestEvalPayloadFuzz throws mutated eval payloads at the decoder —
// never a panic, always an error or a well-formed batch.
func TestEvalPayloadFuzz(t *testing.T) {
	base := encodeEval(3, modeFast, []*lac.LAC{
		{Target: 10, SNs: []int{2, 5}, Fn: lac.Fn{Kind: lac.FnAnd}},
		{Target: 11, Fn: lac.Fn{Kind: lac.FnConst1}},
	}, 4, 9)
	for i := range base {
		for _, x := range []byte{0x01, 0x55, 0xff} {
			mut := append([]byte(nil), base...)
			mut[i] ^= x
			decodeEval(mut) // must not panic
		}
	}
	for n := 0; n < len(base); n++ {
		decodeEval(base[:n])
	}
}
