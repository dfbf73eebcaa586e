package dispatch

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"accals/internal/aig"
	"accals/internal/errmetric"
	"accals/internal/estimator"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// Server is an evaluator process's accept loop: each connection is one
// client session holding its own comparator, estimator, simulation
// runner and current-epoch circuit, so concurrent clients never share
// mutable state. Workers bounds the evaluation parallelism per
// session (0 = all CPUs).
type Server struct {
	Workers int

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	start time.Time // monotonic base of telemetry timestamps
}

// Serve accepts sessions on ln until ctx is cancelled or the listener
// fails. It closes the listener and every live session on shutdown and
// returns nil on clean cancellation.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer ln.Close()
	s.mu.Lock()
	if s.start.IsZero() {
		s.start = time.Now()
	}
	s.mu.Unlock()
	stop := context.AfterFunc(ctx, func() {
		ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		s.track(nc, true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.track(nc, false)
			defer nc.Close()
			s.session(nc)
		}()
	}
}

func (s *Server) track(nc net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	if add {
		s.conns[nc] = struct{}{}
	} else {
		delete(s.conns, nc)
	}
}

// session services one client connection until EOF or a fatal error.
// Malformed frames are answered with an error frame where possible;
// the client treats any error as grounds for local failover, so the
// server never needs to guess at recovery.
func (s *Server) session(nc net.Conn) {
	br := bufio.NewReaderSize(nc, 1<<16)
	bw := bufio.NewWriterSize(nc, 1<<16)
	var (
		cmp    *errmetric.Comparator
		est    *estimator.Estimator
		runner *simulate.Runner
		pats   *simulate.Patterns
		epoch  uint64
		g      *aig.Graph
		res    *simulate.Result

		// traced is set when the init carried a trace ID; only then
		// does the session record telemetry, so an untraced session
		// allocates nothing for it.
		traced bool
		tel    []remoteSpan // telemetry pending until the next result frame
	)
	// now reads the evaluator's monotonic clock — the time base the
	// init handshake exports to the client.
	now := func() int64 { return int64(time.Since(s.start)) }
	// span records one telemetry stage; rounds and parents are
	// unknown until an eval frame supplies the trace context, so
	// pending spans are stamped retroactively there.
	span := func(stage byte, start int64) {
		if traced && len(tel) < maxTelemetry-1 {
			tel = append(tel, remoteSpan{stage: stage, round: -1, start: start, dur: now() - start})
		}
	}
	reply := func(typ byte, payload []byte) bool {
		if _, err := writeFrame(bw, typ, payload); err != nil {
			return false
		}
		return bw.Flush() == nil
	}
	fail := func(err error) bool {
		return reply(frameError, []byte(err.Error()))
	}
	for {
		typ, payload, _, err := readFrame(br)
		if err != nil {
			return // EOF or dead transport: nothing sensible to reply
		}
		switch typ {
		case frameInit:
			t0 := now()
			req, err := decodeInit(payload)
			if err != nil {
				fail(err)
				return
			}
			ref, err := aig.DecodeBinary(req.ref)
			if err != nil {
				fail(err)
				return
			}
			cmp, err = errmetric.NewComparatorChecked(req.kind, ref, req.pats)
			if err != nil {
				fail(err)
				return
			}
			pats = req.pats
			est = estimator.New(s.Workers)
			runner = simulate.NewRunner(s.Workers)
			epoch, g, res = 0, nil, nil
			traced, tel = req.traceID != "", nil
			span(stageFrameDecode, t0)
			// Clock-offset handshake: ship our monotonic reading and OS
			// pid so the client can place our spans on its timeline and
			// label our process lane.
			if !reply(frameOK, encodeInitOK(now(), os.Getpid())) {
				return
			}

		case frameEpoch:
			if cmp == nil {
				fail(fmt.Errorf("%w: epoch before init", ErrProtocol))
				return
			}
			t0 := now()
			id, gBytes, err := decodeEpoch(payload)
			if err != nil {
				fail(err)
				return
			}
			ng, err := aig.DecodeBinary(gBytes)
			if err != nil {
				fail(err)
				return
			}
			span(stageEpochApply, t0)
			t1 := now()
			nres, err := runner.Run(ng, pats)
			if err != nil {
				fail(err)
				return
			}
			span(stageSimulate, t1)
			runner.Release(res)
			epoch, g, res = id, ng, nres
			if !reply(frameOK, nil) {
				return
			}

		case frameEval:
			if g == nil {
				fail(fmt.Errorf("%w: eval before epoch", ErrProtocol))
				return
			}
			t0 := now()
			id, mode, lacs, tr, err := decodeEval(payload)
			if err != nil {
				fail(err)
				return
			}
			// Pending spans (init/epoch work, and this decode) belong
			// to the round whose eval triggered them.
			span(stageFrameDecode, t0)
			for i := range tel {
				if tel[i].round < 0 {
					tel[i].round = tr.round
					tel[i].parent = tr.spanID
				}
			}
			if id != epoch {
				// Stale or future epoch: the client pushes the current
				// circuit before every eval on this connection, so a
				// mismatch means a protocol bug or a crossed session —
				// refuse rather than answer for the wrong circuit.
				if !fail(fmt.Errorf("%w: eval for epoch %d, have %d", ErrProtocol, id, epoch)) {
					return
				}
				continue
			}
			t1 := now()
			deltas, err := evalBatch(est, g, res, cmp, lacs, mode)
			if err != nil {
				fail(err)
				return
			}
			span(stageEstimate, t1)
			t2 := now()
			out := encodeResult(deltas)
			if traced {
				tel = append(tel, remoteSpan{
					stage: stageEncode, round: tr.round, parent: tr.spanID,
					start: t2, dur: now() - t2,
				})
			}
			out = appendResultTrace(out, tel)
			tel = tel[:0]
			if !reply(frameResult, out) {
				return
			}

		default:
			fail(fmt.Errorf("%w: unexpected frame type %d", ErrProtocol, typ))
			return
		}
	}
}

// evalBatch scores a candidate slice against the session's current
// circuit. Candidates are validated before touching the estimator: one
// referencing nodes outside the graph (or a non-AND target) means the
// client and server disagree about the epoch and must be refused, not
// scored. DeltaE per candidate is a pure function of (graph, patterns,
// metric, candidate), so the returned values are bit-identical to the
// ones local evaluation of any enclosing batch would produce.
func evalBatch(est *estimator.Estimator, g *aig.Graph, res *simulate.Result, cmp *errmetric.Comparator, lacs []*lac.LAC, mode byte) ([]float64, error) {
	for i, l := range lacs {
		if l.Target <= 0 || l.Target >= g.NumNodes() || !g.IsAnd(l.Target) {
			return nil, fmt.Errorf("%w: candidate %d targets node %d", ErrProtocol, i, l.Target)
		}
		for _, sn := range l.SNs {
			if sn < 0 || sn >= l.Target {
				return nil, fmt.Errorf("%w: candidate %d has substitute node %d outside [0, %d)", ErrProtocol, i, sn, l.Target)
			}
		}
	}
	if mode == modeExact {
		est.EstimateAllExactRec(g, res, cmp, lacs, nil)
	} else {
		est.EstimateAllRec(g, res, cmp, lacs, nil)
	}
	deltas := make([]float64, len(lacs))
	for i, l := range lacs {
		deltas[i] = l.DeltaE
	}
	return deltas, nil
}
