package dispatch

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"accals/internal/aig"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/faultinject"
	"accals/internal/lac"
	"accals/internal/obs"
	"accals/internal/par"
	"accals/internal/simulate"
)

// Fault-injection points on the client side of the evaluator
// transport (see internal/faultinject). All of them drive the same
// failover: the affected slice is re-evaluated locally.
const (
	// FaultConnect fails the dial of an evaluator connection.
	FaultConnect = "dispatch.connect"
	// FaultSend fails a request before any bytes are written.
	FaultSend = "dispatch.send"
	// FaultFrame truncates a request frame mid-write (a torn frame);
	// the connection is closed immediately after, like a crashed peer.
	FaultFrame = "dispatch.frame"
	// FaultRecvDelay delays reading the response (a slow evaluator).
	FaultRecvDelay = "dispatch.recv.delay"
)

// defaultTimeout bounds one request/response round trip; a hung
// evaluator becomes a failover, never a hung synthesis round.
const defaultTimeout = 30 * time.Second

// defaultMinBatch is the minimum candidate count per remote share:
// below it the RPC overhead exceeds the evaluation itself and the
// whole batch stays local.
const defaultMinBatch = 32

// Pool fans candidate batches out to a fixed set of evaluator
// processes, keeping one lazily-dialed connection per address. It is
// bound to one run's metric, pattern set and reference circuit at
// construction (the init frame); per round it pushes the current
// circuit to each connection at most once (the epoch frame, re-encoded
// only when the circuit pointer changes) and splits each EstimateAll
// into one slice per evaluator plus a local slice evaluated on the
// calling goroutine.
//
// A Pool is not safe for concurrent use: like the Estimator it serves,
// the flows call it once per round from the round loop.
type Pool struct {
	// MinBatch is the minimum candidates per remote share; batches
	// whose shares would fall below it are evaluated locally. Zero
	// means the default (32).
	MinBatch int
	// Timeout bounds one RPC round trip. Zero means the default (30s).
	Timeout time.Duration
	// TraceID, when non-empty, is sent to every evaluator in the init
	// frame: evaluators then ship back per-batch telemetry spans and
	// the client traces each RPC. Set it before the first EstimateAll,
	// and only when tracing is on — the empty default means untraced,
	// which keeps both sides' hot paths free of telemetry work.
	TraceID string

	kind    errmetric.Kind
	pats    *simulate.Patterns
	refEnc  []byte
	initEnc []byte // built on the first remote EstimateAll
	inj     *faultinject.Injector
	conns   []*evalConn

	epoch    uint64
	epochG   *aig.Graph
	epochEnc []byte
}

// NewPool returns a pool over the given evaluator addresses, bound to
// one run's metric, reference (exact) circuit and pattern set. inj may
// be nil. Connections are dialed lazily on first use and re-dialed
// after failures, so a pool stays usable across evaluator restarts.
func NewPool(addrs []string, kind errmetric.Kind, ref *aig.Graph, pats *simulate.Patterns, inj *faultinject.Injector) *Pool {
	p := &Pool{
		kind:   kind,
		pats:   pats,
		refEnc: ref.AppendBinary(nil),
		inj:    inj,
	}
	for i, a := range addrs {
		p.conns = append(p.conns, &evalConn{addr: a, idx: i})
	}
	return p
}

// Evaluators returns the number of configured evaluator processes.
func (p *Pool) Evaluators() int { return len(p.conns) }

// Close closes every live connection. The pool may be used again
// afterwards; connections re-dial on demand.
func (p *Pool) Close() {
	for _, c := range p.conns {
		c.close()
	}
}

// EstimateAll scores every candidate's DeltaE like
// est.EstimateAllRec/EstimateAllExactRec, splitting the batch across
// the pool's evaluators plus a local share, and returns the current
// error. Results are bit-identical to local evaluation at any split:
// each candidate's score is split-invariant (see the package comment)
// and every slice writes disjoint DeltaE slots. A slice whose
// transport fails is re-evaluated locally after the join, so faults
// never change the outcome.
func (p *Pool) EstimateAll(est *estimator.Estimator, g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, exact bool, rec *obs.Recorder) float64 {
	n := len(lacs)
	shares := len(p.conns) + 1
	minBatch := p.MinBatch
	if minBatch <= 0 {
		minBatch = defaultMinBatch
	}
	if len(p.conns) == 0 || n < minBatch*shares {
		return localEval(est, g, res, cmp, lacs, exact, rec)
	}
	if p.initEnc == nil {
		// Built once TraceID is final, on the round loop's goroutine,
		// never inside the per-connection goroutines.
		p.initEnc = encodeInit(p.kind, p.refEnc, p.pats, p.TraceID)
	}
	if p.epochG != g {
		p.epoch++
		p.epochG = g
		p.epochEnc = encodeEpoch(p.epoch, g.AppendBinary(nil))
	}
	mode := modeFast
	if exact {
		mode = modeExact
	}
	errs := make([]error, len(p.conns))
	var wg sync.WaitGroup
	for s := range p.conns {
		begin, end := par.Block(s, shares, n)
		if begin == end {
			continue
		}
		wg.Add(1)
		go func(s int, slice []*lac.LAC) {
			defer wg.Done()
			rec.DispatchInflight(1)
			defer rec.DispatchInflight(-1)
			errs[s] = p.conns[s].evalSlice(p, slice, mode, rec)
		}(s, lacs[begin:end])
	}
	begin, end := par.Block(shares-1, shares, n)
	curErr := localEval(est, g, res, cmp, lacs[begin:end], exact, rec)
	wg.Wait()
	for s := range p.conns {
		begin, end := par.Block(s, shares, n)
		if begin == end {
			continue
		}
		if errs[s] != nil {
			localEval(est, g, res, cmp, lacs[begin:end], exact, rec)
			rec.DispatchBatch(false)
		} else {
			rec.DispatchBatch(true)
		}
	}
	return curErr
}

// localEval runs the estimator on a slice (possibly empty — the
// estimator still returns the current error), in fast or exact mode.
func localEval(est *estimator.Estimator, g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, exact bool, rec *obs.Recorder) float64 {
	if exact {
		return est.EstimateAllExactRec(g, res, cmp, lacs, rec)
	}
	return est.EstimateAllRec(g, res, cmp, lacs, rec)
}

// evalConn is one evaluator connection: lazily dialed, initialised
// with the run's init frame, and holding at most one pushed epoch.
type evalConn struct {
	addr   string
	idx    int // connection index: stable trace pid/tid lanes
	nc     net.Conn
	br     *bufio.Reader
	epoch  uint64
	inited bool

	// Trace state, from the init handshake (used only when the pool
	// has a TraceID).
	clk    clockMap // evaluator clock mapping
	proc   string   // trace process label: "evaluator <addr> (pid N)"
	spanID uint64   // parent span id of the next eval frame
}

func (c *evalConn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
		c.br = nil
		c.inited = false
		c.epoch = 0
	}
}

// evalSlice pushes the current epoch if this connection hasn't seen it
// and evaluates one candidate slice, writing DeltaE into the slice's
// own (disjoint) slots. Any error leaves the connection closed for
// re-dial and the slice untouched for local failover.
func (c *evalConn) evalSlice(p *Pool, slice []*lac.LAC, mode byte, rec *obs.Recorder) error {
	if err := c.ensure(p, rec); err != nil {
		return err
	}
	c.spanID++
	payload := encodeEval(p.epoch, mode, slice, rec.CurrentRound(), c.spanID)
	typ, resp, err := c.roundTrip(p, frameEval, payload, rec)
	if err != nil {
		c.close()
		return err
	}
	if typ != frameResult {
		c.close()
		return remoteErr(typ, resp)
	}
	deltas, tel, err := decodeResult(resp, len(slice))
	if err != nil {
		c.close()
		return err
	}
	c.emitTelemetry(tel, rec)
	for i, d := range deltas {
		slice[i].DeltaE = d
	}
	return nil
}

// emitTelemetry lands the evaluator's spans on the local timeline
// through the connection's clock mapping, on the connection's own
// trace process lane.
func (c *evalConn) emitTelemetry(tel []remoteSpan, rec *obs.Recorder) {
	if len(tel) == 0 {
		return
	}
	for _, sp := range tel {
		d := time.Duration(sp.dur)
		rec.CountRemoteSpan(d)
		rec.EmitEvent(obs.TraceEvent{
			Name:  stageName(sp.stage),
			Proc:  c.proc,
			PID:   obs.PIDEvaluatorBase + c.idx,
			Round: sp.round, // -1 resolves to the current round
			Start: c.clk.toLocal(sp.start),
			Dur:   d,
		})
	}
}

// ensure dials, initialises and epoch-syncs the connection as needed.
func (c *evalConn) ensure(p *Pool, rec *obs.Recorder) error {
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	if c.nc == nil {
		if p.inj != nil {
			if err := p.inj.Fail(FaultConnect); err != nil {
				return err
			}
		}
		nc, err := net.DialTimeout("tcp", c.addr, timeout)
		if err != nil {
			return err
		}
		c.nc = nc
		c.br = bufio.NewReaderSize(nc, 1<<16)
		c.inited = false
		c.epoch = 0
	}
	if !c.inited {
		t0 := time.Now()
		typ, resp, err := c.roundTrip(p, frameInit, p.initEnc, rec)
		t1 := time.Now()
		if err != nil {
			c.close()
			return err
		}
		if typ != frameOK {
			c.close()
			return remoteErr(typ, resp)
		}
		nanos, pid, err := decodeInitOK(resp)
		if err != nil {
			c.close()
			return err
		}
		if p.TraceID != "" {
			c.clk = newClockMap(t0, t1, nanos)
			c.proc = fmt.Sprintf("evaluator %s (pid %d)", c.addr, pid)
		}
		c.inited = true
	}
	if c.epoch != p.epoch {
		typ, resp, err := c.roundTrip(p, frameEpoch, p.epochEnc, rec)
		if err != nil {
			c.close()
			return err
		}
		if typ != frameOK {
			c.close()
			return remoteErr(typ, resp)
		}
		c.epoch = p.epoch
	}
	return nil
}

// roundTrip sends one request frame and reads the response frame,
// applying the per-round-trip deadline, the fault-injection points and
// the dispatch metrics.
func (c *evalConn) roundTrip(p *Pool, typ byte, payload []byte, rec *obs.Recorder) (byte, []byte, error) {
	timeout := p.Timeout
	if timeout <= 0 {
		timeout = defaultTimeout
	}
	if err := c.nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if p.inj != nil {
		if err := p.inj.Fail(FaultSend); err != nil {
			return 0, nil, err
		}
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	frame := append(append(make([]byte, 0, 5+len(payload)), hdr[:]...), payload...)
	if p.inj != nil {
		if torn := p.inj.Data(FaultFrame, frame); len(torn) != len(frame) {
			c.nc.Write(torn)
			c.nc.Close() // torn frame: die like a crashed peer
			return 0, nil, fmt.Errorf("%w: torn frame injected", ErrProtocol)
		}
	}
	if _, err := c.nc.Write(frame); err != nil {
		return 0, nil, err
	}
	rec.DispatchBytes(len(frame), 0)
	if p.inj != nil {
		p.inj.Sleep(context.Background(), FaultRecvDelay)
	}
	rtyp, resp, rn, err := readFrame(c.br)
	if err != nil {
		return 0, nil, err
	}
	rec.DispatchBytes(0, rn)
	d := time.Since(start)
	rec.DispatchRPC(d)
	if p.TraceID != "" {
		// RPC lane span: wall time of the round trip on this
		// connection's dispatch thread, with the connection's measured
		// RTT as the network-share bound. Guarded by TraceID so the
		// untraced hot path stays allocation-free.
		rec.EmitEvent(obs.TraceEvent{
			Name:  rpcName(typ),
			TID:   obs.TIDDispatchBase + c.idx,
			Round: -1,
			Start: start,
			Dur:   d,
			NetUS: c.clk.rtt.Microseconds(),
		})
	}
	return rtyp, resp, nil
}

// rpcName names the trace span of one round trip by request frame
// type.
func rpcName(typ byte) string {
	switch typ {
	case frameInit:
		return "rpc:init"
	case frameEpoch:
		return "rpc:epoch"
	case frameEval:
		return "rpc:eval"
	}
	return "rpc:other"
}

func remoteErr(typ byte, resp []byte) error {
	if typ == frameError {
		return fmt.Errorf("%w: %s", ErrRemote, resp)
	}
	return fmt.Errorf("%w: unexpected response frame type %d", ErrProtocol, typ)
}
