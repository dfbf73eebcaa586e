// Package dispatch farms candidate-batch error estimation to external
// evaluator processes (`accals -serve-eval`, same binary) over a
// length-prefixed binary protocol, breaking the one-process ceiling on
// round time.
//
// Correctness rests on one property of the estimator: a candidate's
// ΔE is a pure function of (graph, pattern set, metric, candidate) —
// never of which other candidates share the batch — because every
// per-output propagation mask is deterministic and every merge is
// order-free (DESIGN §2d). Splitting a batch into slices and
// evaluating the slices on different processes therefore yields
// bit-identical DeltaE values to local evaluation, and the client
// merges by writing each slice's results into disjoint slots. Any
// transport error fails the slice over to local evaluation, so faults
// cost time, never correctness.
//
// Wire format: every frame is a 4-byte big-endian payload length, a
// 1-byte frame type, then the payload. The conversation per
// connection:
//
//	client → init    version, metric kind, pattern words, reference
//	                 circuit, trace id (empty when untraced)
//	server → ok      evaluator clock reading + OS pid (or error)
//	client → epoch   epoch id + current circuit        } once per circuit
//	server → ok      (or error)                        } change, per conn
//	client → eval    epoch id, mode (fast|exact), candidate slice,
//	                 round + parent span id
//	server → result  one IEEE-754 bit pattern per candidate, then the
//	                 evaluator's telemetry spans (or error)
//
// The server keeps exactly one decoded circuit per connection — the
// latest epoch — simulates it once on arrival, and rejects eval
// frames whose epoch id does not match (the client then re-pushes).
// Float64s cross the wire as math.Float64bits, so no precision is
// lost and bit-identity survives the roundtrip.
package dispatch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"accals/internal/errmetric"
	"accals/internal/lac"
	"accals/internal/simulate"
)

// protoVersion is the wire-protocol version carried by the init
// frame; an evaluator refuses any other. The client and the evaluator
// ship in one binary, so there is exactly one version to speak. It
// carries distributed-tracing context: the init frame carries the
// run's trace ID and is answered with the evaluator's monotonic clock
// reading + OS pid (the clock-offset handshake), eval frames carry the
// round and a parent span ID, and result frames append evaluator-side
// telemetry spans. An empty trace ID means the run is untraced: the
// evaluator then records no telemetry and every result carries an
// empty span list.
const protoVersion = 2

// Frame types.
const (
	frameInit byte = iota + 1
	frameOK
	frameEpoch
	frameEval
	frameResult
	frameError
)

// Eval modes.
const (
	modeFast  byte = 0
	modeExact byte = 1
)

// maxFrame bounds a frame payload (64 MiB): large enough for any
// realistic pattern set or candidate batch, small enough that a
// corrupt length prefix cannot provoke an absurd allocation.
const maxFrame = 64 << 20

// ErrProtocol is wrapped by every malformed-frame error.
var ErrProtocol = errors.New("dispatch: protocol error")

// ErrRemote is wrapped by errors the peer reported in an error frame.
var ErrRemote = errors.New("dispatch: remote error")

// writeFrame writes one frame: length prefix, type byte, payload.
func writeFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return 0, err
		}
	}
	return len(hdr) + len(payload), nil
}

// readFrame reads one frame, returning its type and payload.
func readFrame(r io.Reader) (byte, []byte, int, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, 0, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, err
	}
	return hdr[4], payload, len(hdr) + int(n), nil
}

// encodeInit builds the init payload: protocol version, metric kind,
// pattern set (PI count, pattern count, packed words per PI), the
// encoded reference circuit and the run's trace ID ("" when untraced).
func encodeInit(kind errmetric.Kind, ref []byte, p *simulate.Patterns, traceID string) []byte {
	words := p.Words()
	buf := make([]byte, 0, 16+p.NumPIs()*words*8+len(ref)+len(traceID))
	buf = append(buf, protoVersion, byte(kind))
	buf = binary.AppendUvarint(buf, uint64(p.NumPIs()))
	buf = binary.AppendUvarint(buf, uint64(p.NumPatterns()))
	for i := 0; i < p.NumPIs(); i++ {
		row := p.PIValue(i)
		for w := 0; w < words; w++ {
			buf = binary.LittleEndian.AppendUint64(buf, row[w])
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(ref)))
	buf = append(buf, ref...)
	buf = binary.AppendUvarint(buf, uint64(len(traceID)))
	return append(buf, traceID...)
}

// initReq is a decoded init frame.
type initReq struct {
	kind    errmetric.Kind
	ref     []byte
	pats    *simulate.Patterns
	traceID string
}

func decodeInit(payload []byte) (initReq, error) {
	d := wireDecoder{buf: payload}
	ver := d.byte()
	kind := errmetric.Kind(d.byte())
	if d.err == nil && ver != protoVersion {
		return initReq{}, fmt.Errorf("%w: protocol version %d, want %d", ErrProtocol, ver, protoVersion)
	}
	if d.err == nil && kind == errmetric.MaxED {
		// Remote evaluation only samples; it cannot carry the SAT
		// certification a MaxED run's acceptance depends on. Refusing
		// the metric here keeps a misconfigured coordinator from
		// silently downgrading certified synthesis to sampling.
		return initReq{}, fmt.Errorf("%w: metric %v is not dispatchable (SAT certification is local-only)", ErrProtocol, kind)
	}
	numPIs := int(d.uvarint())
	numPatterns := int(d.uvarint())
	if d.err != nil {
		return initReq{}, d.err
	}
	if numPIs < 0 || numPIs > 1<<20 || numPatterns < 1 || numPatterns > 1<<30 {
		return initReq{}, fmt.Errorf("%w: pattern set %d x %d out of range", ErrProtocol, numPIs, numPatterns)
	}
	words := (numPatterns + 63) / 64
	rows := make([][]uint64, numPIs)
	for i := range rows {
		rows[i] = d.words(words)
	}
	ref := d.bytes()
	traceID := string(d.bytes())
	if d.err != nil {
		return initReq{}, d.err
	}
	if len(d.buf) != 0 {
		return initReq{}, fmt.Errorf("%w: %d trailing bytes in init", ErrProtocol, len(d.buf))
	}
	p, err := simulate.FromWords(numPIs, numPatterns, rows)
	if err != nil {
		return initReq{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return initReq{kind: kind, ref: ref, pats: p, traceID: traceID}, nil
}

// encodeInitOK builds the init acknowledgement: the evaluator's
// monotonic clock reading (nanoseconds since its Serve started) and
// its OS pid.
func encodeInitOK(serverNanos int64, pid int) []byte {
	buf := make([]byte, 0, 16)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(serverNanos))
	return binary.AppendUvarint(buf, uint64(pid))
}

func decodeInitOK(payload []byte) (int64, int, error) {
	d := wireDecoder{buf: payload}
	nanos := int64(d.u64())
	pid := int(d.uvarint())
	if d.err != nil {
		return 0, 0, d.err
	}
	if len(d.buf) != 0 {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes in init ack", ErrProtocol, len(d.buf))
	}
	return nanos, pid, nil
}

// encodeEpoch builds the epoch payload: epoch id + encoded circuit.
func encodeEpoch(epoch uint64, g []byte) []byte {
	buf := make([]byte, 0, 10+len(g))
	buf = binary.AppendUvarint(buf, epoch)
	return append(buf, g...)
}

func decodeEpoch(payload []byte) (uint64, []byte, error) {
	d := wireDecoder{buf: payload}
	epoch := d.uvarint()
	if d.err != nil {
		return 0, nil, d.err
	}
	return epoch, d.buf, nil
}

// snCount maps a replacement-function kind to its substitute-node
// count, which the candidate encoding leaves implicit.
func snCount(k lac.FnKind) int {
	switch k {
	case lac.FnConst0, lac.FnConst1:
		return 0
	case lac.FnWire:
		return 1
	case lac.FnAnd, lac.FnXor:
		return 2
	case lac.FnMux, lac.FnMaj:
		return 3
	}
	return -1
}

// encodeEval builds the eval payload: epoch id, mode, candidate count,
// then per candidate the target id, one packed function byte (kind in
// the low 3 bits, then C0/C1/C2/OutC flags) and the substitute nodes,
// then the trace context: the round (-1 when unknown, encoded as 0)
// and the client-side parent span ID.
func encodeEval(epoch uint64, mode byte, lacs []*lac.LAC, round int, spanID uint64) []byte {
	buf := make([]byte, 0, 32+8*len(lacs))
	buf = binary.AppendUvarint(buf, epoch)
	buf = append(buf, mode)
	buf = binary.AppendUvarint(buf, uint64(len(lacs)))
	for _, l := range lacs {
		buf = binary.AppendUvarint(buf, uint64(l.Target))
		fb := byte(l.Fn.Kind) & 7
		if l.Fn.C0 {
			fb |= 1 << 3
		}
		if l.Fn.C1 {
			fb |= 1 << 4
		}
		if l.Fn.C2 {
			fb |= 1 << 5
		}
		if l.Fn.OutC {
			fb |= 1 << 6
		}
		buf = append(buf, fb)
		for _, sn := range l.SNs[:snCount(l.Fn.Kind)] {
			buf = binary.AppendUvarint(buf, uint64(sn))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(round+1))
	return binary.AppendUvarint(buf, spanID)
}

// evalTrace is the trace context an eval frame carries: the synthesis
// round the batch belongs to (-1 when unknown) and the client-side
// parent span ID.
type evalTrace struct {
	round  int
	spanID uint64
}

// decodeEval decodes an eval payload.
func decodeEval(payload []byte) (uint64, byte, []*lac.LAC, evalTrace, error) {
	tr := evalTrace{round: -1}
	d := wireDecoder{buf: payload}
	epoch := d.uvarint()
	mode := d.byte()
	n := int(d.uvarint())
	if d.err != nil {
		return 0, 0, nil, tr, d.err
	}
	if mode != modeFast && mode != modeExact {
		return 0, 0, nil, tr, fmt.Errorf("%w: eval mode %d", ErrProtocol, mode)
	}
	if n < 0 || n > 1<<24 {
		return 0, 0, nil, tr, fmt.Errorf("%w: candidate count %d out of range", ErrProtocol, n)
	}
	lacs := make([]*lac.LAC, 0, n)
	for i := 0; i < n; i++ {
		target := int(d.uvarint())
		fb := d.byte()
		fn := lac.Fn{
			Kind: lac.FnKind(fb & 7),
			C0:   fb&(1<<3) != 0,
			C1:   fb&(1<<4) != 0,
			C2:   fb&(1<<5) != 0,
			OutC: fb&(1<<6) != 0,
		}
		k := snCount(fn.Kind)
		if k < 0 {
			return 0, 0, nil, tr, fmt.Errorf("%w: candidate %d has function kind %d", ErrProtocol, i, fn.Kind)
		}
		var sns []int
		if k > 0 {
			sns = make([]int, k)
			for j := range sns {
				sns[j] = int(d.uvarint())
			}
		}
		if d.err != nil {
			return 0, 0, nil, tr, d.err
		}
		lacs = append(lacs, &lac.LAC{Target: target, SNs: sns, Fn: fn})
	}
	tr.round = int(d.uvarint()) - 1
	tr.spanID = d.uvarint()
	if d.err != nil {
		return 0, 0, nil, tr, d.err
	}
	if len(d.buf) != 0 {
		return 0, 0, nil, tr, fmt.Errorf("%w: %d trailing bytes in eval", ErrProtocol, len(d.buf))
	}
	return epoch, mode, lacs, tr, nil
}

// encodeResult builds the head of a result payload: one Float64bits
// per candidate, in slice order. appendResultTrace completes it.
func encodeResult(deltas []float64) []byte {
	buf := make([]byte, 0, 11+8*len(deltas))
	buf = binary.AppendUvarint(buf, uint64(len(deltas)))
	for _, v := range deltas {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// Evaluator-side telemetry stages, named per batch step.
const (
	stageFrameDecode byte = iota + 1
	stageEpochApply
	stageSimulate
	stageEstimate
	stageEncode
)

// stageName maps a telemetry stage to its span name in the merged
// trace.
func stageName(s byte) string {
	switch s {
	case stageFrameDecode:
		return "remote:frame-decode"
	case stageEpochApply:
		return "remote:epoch-apply"
	case stageSimulate:
		return "remote:simulate"
	case stageEstimate:
		return "remote:estimate"
	case stageEncode:
		return "remote:encode"
	}
	return "remote:unknown"
}

// remoteSpan is one evaluator-side telemetry span. start and dur are
// nanoseconds on the evaluator's monotonic clock (since its Serve
// started); the client maps start onto its own timeline through the
// connection's clockMap.
type remoteSpan struct {
	stage  byte
	round  int // -1 when the evaluator did not know the round yet
	parent uint64
	start  int64
	dur    int64
}

// maxTelemetry bounds the telemetry span count in one result frame.
const maxTelemetry = 1 << 16

// appendResultTrace appends the evaluator's telemetry spans to an
// encoded result head, completing the payload. An untraced session
// sends none: a single zero count byte.
func appendResultTrace(buf []byte, tel []remoteSpan) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(tel)))
	for _, s := range tel {
		buf = append(buf, s.stage)
		buf = binary.AppendUvarint(buf, uint64(s.round+1))
		buf = binary.AppendUvarint(buf, s.parent)
		buf = binary.AppendUvarint(buf, uint64(s.start))
		buf = binary.AppendUvarint(buf, uint64(s.dur))
	}
	return buf
}

// decodeResult decodes a result payload carrying want deltas.
func decodeResult(payload []byte, want int) ([]float64, []remoteSpan, error) {
	d := wireDecoder{buf: payload}
	n := int(d.uvarint())
	if d.err != nil {
		return nil, nil, d.err
	}
	if n != want {
		return nil, nil, fmt.Errorf("%w: result carries %d values, want %d", ErrProtocol, n, want)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(d.u64())
	}
	var tel []remoteSpan
	k := int(d.uvarint())
	if d.err == nil && (k < 0 || k > maxTelemetry) {
		return nil, nil, fmt.Errorf("%w: telemetry span count %d out of range", ErrProtocol, k)
	}
	if d.err == nil && k > 0 {
		tel = make([]remoteSpan, 0, k)
		for i := 0; i < k; i++ {
			sp := remoteSpan{
				stage:  d.byte(),
				round:  int(d.uvarint()) - 1,
				parent: d.uvarint(),
				start:  int64(d.uvarint()),
				dur:    int64(d.uvarint()),
			}
			tel = append(tel, sp)
		}
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes in result", ErrProtocol, len(d.buf))
	}
	return out, tel, nil
}

// wireDecoder consumes a payload front to back, latching the first
// error (same discipline as the aig codec).
type wireDecoder struct {
	buf []byte
	err error
}

func (d *wireDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated payload", ErrProtocol)
	}
}

func (d *wireDecoder) byte() byte {
	if d.err != nil || len(d.buf) == 0 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *wireDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *wireDecoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *wireDecoder) words(n int) []uint64 {
	if d.err != nil || len(d.buf) < 8*n {
		d.fail()
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(d.buf[8*i:])
	}
	d.buf = d.buf[8*n:]
	return out
}

func (d *wireDecoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}
