package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"accals/internal/circuits"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/faultinject"
	"accals/internal/lac"
	"accals/internal/obs"
)

// startServerCfg runs a configured Server on a loopback listener for
// the test's lifetime and returns its address.
func startServerCfg(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, ln)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ln.Addr().String()
}

// TestRemoteTelemetryEndToEnd runs a traced pool against a current
// server and checks the evaluator's spans land on the merged timeline:
// counted in the summary, clock-mapped into the run's local time
// range, and attributed to the evaluator's process lane.
func TestRemoteTelemetryEndToEnd(t *testing.T) {
	addr := startServer(t, 1)
	g := circuits.ArrayMult(4)
	kind := errmetric.NMED
	p, res, cmp, cands := setup(t, g, kind)
	est := estimator.New(1)
	want := localEval(est, g, res, cmp, cands, false, nil)
	wantD := snapshot(cands)

	rec := obs.NewRecorder()
	var trace bytes.Buffer
	tracer := obs.NewTracer(&trace, obs.TraceJSONL)
	rec.AddTracer(tracer)

	pool := NewPool([]string{addr, addr}, kind, g, p, nil)
	pool.MinBatch = 1
	pool.TraceID = rec.TraceID()
	defer pool.Close()

	t0 := time.Now()
	rec.BeginRound(5)
	clear(cands)
	if got := pool.EstimateAll(est, g, res, cmp, cands, false, rec); got != want {
		t.Fatalf("current error %v, want %v", got, want)
	}
	elapsed := time.Since(t0)
	for i := range cands {
		if cands[i].DeltaE != wantD[i] {
			t.Fatalf("cand %d: DeltaE %v, want %v", i, cands[i].DeltaE, wantD[i])
		}
	}
	sum := rec.Summary()
	if sum.RemoteSpans == 0 {
		t.Fatal("no remote telemetry spans recorded")
	}
	if sum.RemoteBusySeconds < 0 {
		t.Fatalf("remote busy seconds %v", sum.RemoteBusySeconds)
	}

	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	type line struct {
		TUS   int64  `json:"t_us"`
		DurUS int64  `json:"dur_us"`
		Phase string `json:"phase"`
		Round int    `json:"round"`
		Proc  string `json:"proc"`
		PID   int    `json:"pid"`
	}
	var remote, rpc int
	for _, text := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(text), &l); err != nil {
			t.Fatalf("bad trace line %q: %v", text, err)
		}
		if strings.HasPrefix(l.Phase, "rpc:") {
			rpc++
			if l.Round != 5 {
				t.Errorf("rpc span round %d, want 5", l.Round)
			}
		}
		if strings.HasPrefix(l.Phase, "remote:") {
			remote++
			if l.PID < obs.PIDEvaluatorBase {
				t.Errorf("remote span pid %d, want >= %d", l.PID, obs.PIDEvaluatorBase)
			}
			if !strings.Contains(l.Proc, "evaluator") || !strings.Contains(l.Proc, "pid ") {
				t.Errorf("remote span proc %q", l.Proc)
			}
			// Clock-mapped onto the local timeline: the span must start
			// within the round's wall-clock window (with rtt/2 slack on
			// either side; loopback rtt is far below a second).
			if l.TUS < -1e6 || time.Duration(l.TUS)*time.Microsecond > elapsed+time.Second {
				t.Errorf("remote span t_us %d outside run window (%v)", l.TUS, elapsed)
			}
			if l.Round != 5 && l.Round != -1 {
				t.Errorf("remote span round %d, want 5", l.Round)
			}
		}
	}
	if remote == 0 || rpc == 0 {
		t.Fatalf("trace has %d remote and %d rpc spans, want both > 0", remote, rpc)
	}
	if int64(remote) != sum.RemoteSpans {
		t.Errorf("trace has %d remote spans, summary says %d", remote, sum.RemoteSpans)
	}
}

// TestInflightGaugeDrainsOnFailover arms every transport fault point
// and checks the dispatch bookkeeping survives: the in-flight gauge
// returns to zero after every round (no leaked increments on error
// paths) and the RPC latency histogram saw the successful round trips.
func TestInflightGaugeDrainsOnFailover(t *testing.T) {
	addr := startServer(t, 1)
	g := circuits.ArrayMult(4)
	kind := errmetric.ER
	p, res, cmp, cands := setup(t, g, kind)
	est := estimator.New(1)
	want := localEval(est, g, res, cmp, cands, false, nil)

	spec := FaultConnect + ":error:0.3," + FaultSend + ":error:0.3," + FaultFrame + ":truncate:0.3:0.4"
	inj, err := faultinject.Parse(11, spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	pool := NewPool([]string{addr, addr, addr}, kind, g, p, inj)
	pool.MinBatch = 1
	defer pool.Close()

	for round := 0; round < 6; round++ {
		clear(cands)
		if got := pool.EstimateAll(est, g, res, cmp, cands, false, rec); got != want {
			t.Fatalf("round %d: %v != %v", round, got, want)
		}
	}
	var sb strings.Builder
	if err := rec.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, "accals_dispatch_inflight 0") {
		t.Errorf("in-flight gauge did not drain to zero:\n%s", grepMetric(text, "accals_dispatch_inflight"))
	}
	if !strings.Contains(text, "accals_dispatch_rpc_seconds_count") ||
		strings.Contains(text, "accals_dispatch_rpc_seconds_count 0\n") {
		t.Errorf("rpc latency histogram empty or missing:\n%s", grepMetric(text, "accals_dispatch_rpc_seconds"))
	}
	// The fault mix must actually have exercised both outcomes.
	sum := rec.Summary()
	if sum.DispatchFailovers == 0 || sum.DispatchRemoteBatches == 0 {
		t.Fatalf("fault mix did not exercise both paths: %d failovers, %d remote", sum.DispatchFailovers, sum.DispatchRemoteBatches)
	}
}

// grepMetric pulls one metric family's lines out of an exposition dump
// for failure messages.
func grepMetric(text, name string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, name) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// truncations asserts every strict prefix of a valid payload fails
// to decode rather than misreading it.
func truncations(t *testing.T, name string, payload []byte, decode func([]byte) error) {
	t.Helper()
	for n := 0; n < len(payload); n++ {
		if decode(payload[:n]) == nil {
			t.Fatalf("%s truncated to %d of %d bytes decoded without error", name, n, len(payload))
		}
	}
	if decode(append(append([]byte(nil), payload...), 0)) == nil {
		t.Fatalf("%s with a trailing byte decoded without error", name)
	}
}

// TestInitCodecVersions pins the init layout: traced and untraced frames
// round-trip, truncation and trailing bytes fail, and every protocol
// version but the one this build speaks is rejected.
func TestInitCodecVersions(t *testing.T) {
	g := circuits.RCA(4)
	p, _, _, _ := setup(t, g, errmetric.ER)
	ref := g.AppendBinary(nil)

	for _, traceID := range []string{"", "0123456789abcdef"} {
		payload := encodeInit(errmetric.ER, ref, p, traceID)
		req, err := decodeInit(payload)
		if err != nil || req.kind != errmetric.ER || req.traceID != traceID {
			t.Fatalf("trace id %q: kind %v traceID %q err %v", traceID, req.kind, req.traceID, err)
		}
		if !bytes.Equal(req.ref, ref) {
			t.Fatalf("trace id %q: reference circuit mangled", traceID)
		}
		if req.pats.NumPIs() != p.NumPIs() || req.pats.NumPatterns() != p.NumPatterns() {
			t.Fatalf("trace id %q: pattern set %dx%d, want %dx%d", traceID,
				req.pats.NumPIs(), req.pats.NumPatterns(), p.NumPIs(), p.NumPatterns())
		}
		truncations(t, "init", payload, func(b []byte) error { _, err := decodeInit(b); return err })
	}

	bad := encodeInit(errmetric.ER, ref, p, "")
	for v := 0; v < 256; v++ {
		if v == protoVersion {
			continue
		}
		bad[0] = byte(v)
		if _, err := decodeInit(bad); err == nil || !strings.Contains(err.Error(), "protocol version") {
			t.Fatalf("version %d error = %v, want protocol version reject", v, err)
		}
	}
}

func TestInitOKCodec(t *testing.T) {
	payload := encodeInitOK(123456789012, 4242)
	nanos, pid, err := decodeInitOK(payload)
	if err != nil || nanos != 123456789012 || pid != 4242 {
		t.Fatalf("got %d/%d/%v", nanos, pid, err)
	}
	truncations(t, "init ack", payload, func(b []byte) error { _, _, err := decodeInitOK(b); return err })
}

func TestEvalTraceCodec(t *testing.T) {
	lacs := []*lac.LAC{
		{Target: 10, SNs: []int{2, 5}, Fn: lac.Fn{Kind: lac.FnAnd}},
		{Target: 11, Fn: lac.Fn{Kind: lac.FnConst1}},
	}
	// The trace context round-trips, including round -1 (unknown).
	for _, round := range []int{-1, 0, 12} {
		payload := encodeEval(7, modeFast, lacs, round, 99)
		epoch, mode, got, tr, err := decodeEval(payload)
		if err != nil || epoch != 7 || mode != modeFast || len(got) != 2 {
			t.Fatalf("round %d: epoch %d mode %d n %d err %v", round, epoch, mode, len(got), err)
		}
		if tr.round != round || tr.spanID != 99 {
			t.Fatalf("round %d: tr %+v", round, tr)
		}
		truncations(t, "eval", payload, func(b []byte) error { _, _, _, _, err := decodeEval(b); return err })
	}
}

func TestResultTraceCodec(t *testing.T) {
	deltas := []float64{1.5, -2.25, 0}
	tel := []remoteSpan{
		{stage: stageFrameDecode, round: -1, parent: 0, start: 10, dur: 5},
		{stage: stageSimulate, round: 3, parent: 9, start: 100, dur: 50},
		{stage: stageEncode, round: 3, parent: 9, start: 160, dur: 1},
	}
	payload := appendResultTrace(encodeResult(deltas), tel)
	got, gotTel, err := decodeResult(payload, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range deltas {
		if got[i] != deltas[i] {
			t.Fatalf("delta %d: %v != %v", i, got[i], deltas[i])
		}
	}
	if len(gotTel) != len(tel) {
		t.Fatalf("%d spans, want %d", len(gotTel), len(tel))
	}
	for i := range tel {
		if gotTel[i] != tel[i] {
			t.Fatalf("span %d: %+v != %+v", i, gotTel[i], tel[i])
		}
	}
	truncations(t, "result", payload, func(b []byte) error { _, _, err := decodeResult(b, 3); return err })

	// An untraced result ends in an empty telemetry list: one zero
	// byte, and valid.
	untraced := appendResultTrace(encodeResult(deltas), nil)
	if got, tel, err := decodeResult(untraced, 3); err != nil || len(got) != 3 || tel != nil {
		t.Fatalf("untraced: %v / %v / %v", got, tel, err)
	}
	truncations(t, "untraced result", untraced, func(b []byte) error { _, _, err := decodeResult(b, 3); return err })
	if _, _, err := decodeResult(untraced, 2); err == nil {
		t.Fatal("result with the wrong candidate count decoded without error")
	}
}

// TestUntracedSessionRecordsNoTelemetry: a pool without a trace ID
// gets bit-identical results and no remote spans — the evaluator
// records telemetry only when the init carried a trace ID.
func TestUntracedSessionRecordsNoTelemetry(t *testing.T) {
	addr := startServer(t, 1)
	g := circuits.ArrayMult(4)
	kind := errmetric.ER
	p, res, cmp, cands := setup(t, g, kind)
	est := estimator.New(1)
	want := localEval(est, g, res, cmp, cands, false, nil)
	wantD := snapshot(cands)

	rec := obs.NewRecorder()
	pool := NewPool([]string{addr, addr}, kind, g, p, nil)
	pool.MinBatch = 1
	defer pool.Close()
	for round := 0; round < 2; round++ {
		rec.BeginRound(round)
		clear(cands)
		if got := pool.EstimateAll(est, g, res, cmp, cands, false, rec); got != want {
			t.Fatalf("round %d: current error %v, want %v", round, got, want)
		}
		for i := range cands {
			if cands[i].DeltaE != wantD[i] {
				t.Fatalf("round %d cand %d: DeltaE %v, want %v", round, i, cands[i].DeltaE, wantD[i])
			}
		}
	}
	sum := rec.Summary()
	if sum.DispatchRemoteBatches == 0 {
		t.Fatal("no batch went remote; the session was never exercised")
	}
	if sum.RemoteSpans != 0 {
		t.Errorf("untraced sessions produced %d remote spans, want 0", sum.RemoteSpans)
	}
}

// TestTraceOffHotPathAllocFree pins the zero-cost contract of the
// instrumentation the trace feature added to the dispatch hot path:
// with no tracer attached, the per-span recorder entry points and the
// TraceID gate allocate nothing.
func TestTraceOffHotPathAllocFree(t *testing.T) {
	rec := obs.NewRecorder() // metrics only, no tracers
	pool := &Pool{}          // TraceID empty: the traced branches are skipped
	allocs := testing.AllocsPerRun(1000, func() {
		if pool.TraceID != "" {
			t.Fatal("unreachable")
		}
		rec.EmitEvent(obs.TraceEvent{Name: "rpc:eval", Round: -1})
		rec.CurrentRound()
		rec.CountRemoteSpan(time.Microsecond)
		if rec.Tracing() {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Fatalf("trace-off hot path allocates %.1f per op, want 0", allocs)
	}
}
