package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"accals/internal/ledger"
)

// Timeline mode (-timeline) turns the bundle's trace.jsonl into a
// per-round wall-clock breakdown. Each round's window (its "round"
// span) is split into two disjoint buckets:
//
//	local-compute  covered by the round's other spans: its phases and
//	               the trace-only ledger-map, measure-each and rebase
//	               spans
//	unattributed   the rest of the window, printed rather than
//	               silently folded into a bucket
//
// Only spans on the synthesis loop's main lane count. Traces written
// by older versions also hold spans on other lanes (rpc:* round trips
// and remote:* evaluator spans of remote evaluation, speculation-lane
// spans); those are skipped.

// traceSpan is one decoded trace.jsonl line. Current writers emit only
// t_us, dur_us, phase and round; pid, tid and proc appear only in older
// traces, on spans off the main lane.
type traceSpan struct {
	TUS   int64  `json:"t_us"`
	DurUS int64  `json:"dur_us"`
	Phase string `json:"phase"`
	Round int    `json:"round"`
	Proc  string `json:"proc"`
	PID   int    `json:"pid"`
	TID   int    `json:"tid"`
}

// mainLane reports whether the span ran on the synthesis loop's main
// lane: no process label, and pid and tid absent or 1.
func (s traceSpan) mainLane() bool {
	return s.Proc == "" && s.PID <= 1 && s.TID <= 1
}

// iv is a half-open interval [s, e) in trace microseconds.
type iv struct{ s, e int64 }

// union sorts and merges intervals in place, returning the merged set.
func union(ivs []iv) []iv {
	if len(ivs) < 2 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	out := ivs[:1]
	for _, v := range ivs[1:] {
		last := &out[len(out)-1]
		if v.s <= last.e {
			if v.e > last.e {
				last.e = v.e
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

// length sums a merged interval set.
func length(u []iv) int64 {
	var n int64
	for _, v := range u {
		n += v.e - v.s
	}
	return n
}

// clip intersects a span with a round window, reporting whether any
// overlap remains.
func clipSpan(s traceSpan, w iv) (iv, bool) {
	c := iv{max(s.TUS, w.s), min(s.TUS+s.DurUS, w.e)}
	return c, c.s < c.e
}

// roundBreakdown is one round's attributed wall-clock, all in µs.
type roundBreakdown struct {
	round  int
	wall   int64
	local  int64
	unattr int64
}

// traceTimeline is the decoded and attributed trace of one bundle.
type traceTimeline struct {
	traceID string
	spans   int
	skipped int // spans off the main lane
	rounds  []roundBreakdown
	byRound map[int]*roundBreakdown
}

// loadTimeline decodes dir's trace.jsonl into a per-round breakdown.
// A bundle without a trace (tracing was off, or the argument is a bare
// ledger file) returns (nil, nil): callers that merely decorate output
// with trace data treat that as "no trace", while -timeline turns it
// into a hard error.
func loadTimeline(dir string) (*traceTimeline, error) {
	st, err := os.Stat(dir)
	if err != nil || !st.IsDir() {
		return nil, nil
	}
	f, err := os.Open(filepath.Join(dir, ledger.TraceFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	spans, err := decodeTraceSpans(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, ledger.TraceFile), err)
	}
	tl := buildTimeline(spans)
	tl.traceID = readTraceID(dir)
	return tl, nil
}

// decodeTraceSpans parses the JSONL span stream. A trailing torn line
// (the run was killed mid-write) is tolerated; a malformed line in the
// middle is not.
func decodeTraceSpans(r io.Reader) ([]traceSpan, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var spans []traceSpan
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if pendingErr != nil {
			return nil, pendingErr
		}
		var s traceSpan
		if err := json.Unmarshal([]byte(text), &s); err != nil {
			pendingErr = fmt.Errorf("line %d: %v", line, err)
			continue
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}

// buildTimeline attributes every main-lane span to its round window.
func buildTimeline(spans []traceSpan) *traceTimeline {
	tl := &traceTimeline{spans: len(spans), byRound: map[int]*roundBreakdown{}}
	var main []traceSpan
	for _, s := range spans {
		if s.mainLane() {
			main = append(main, s)
		} else {
			tl.skipped++
		}
	}

	// Round windows come from the "round" spans.
	type window struct {
		round int
		w     iv
	}
	var windows []window
	for _, s := range main {
		if s.Phase == "round" {
			windows = append(windows, window{s.Round, iv{s.TUS, s.TUS + s.DurUS}})
		}
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].round < windows[j].round })

	for _, win := range windows {
		var localIv []iv
		for _, s := range main {
			if s.Phase == "round" {
				continue
			}
			if c, ok := clipSpan(s, win.w); ok {
				localIv = append(localIv, c)
			}
		}
		rb := roundBreakdown{round: win.round, wall: win.w.e - win.w.s}
		rb.local = length(union(localIv))
		rb.unattr = rb.wall - rb.local
		tl.rounds = append(tl.rounds, rb)
	}
	for i := range tl.rounds {
		tl.byRound[tl.rounds[i].round] = &tl.rounds[i]
	}
	return tl
}

// readTraceID pulls the trace id out of the bundle manifest, if any.
func readTraceID(dir string) string {
	body, err := os.ReadFile(filepath.Join(dir, ledger.ManifestFile))
	if err != nil {
		return ""
	}
	var m ledger.Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return ""
	}
	return m.TraceID
}

// printTimeline renders the per-round breakdown.
func printTimeline(tl *traceTimeline, w io.Writer) {
	id := tl.traceID
	if id == "" {
		id = "(no trace id in manifest)"
	}
	fmt.Fprintf(w, "\ntimeline:  trace %s — %d spans", id, tl.spans)
	if tl.skipped > 0 {
		fmt.Fprintf(w, ", %d off the main lane skipped", tl.skipped)
	}
	fmt.Fprintln(w)
	if len(tl.rounds) == 0 {
		fmt.Fprintf(w, "           no round spans in trace\n")
		return
	}

	fmt.Fprintf(w, "\nround  wall_ms   local%%  unattr%%\n")
	var tot roundBreakdown
	pct := func(us, wall int64) float64 {
		if wall <= 0 {
			return 0
		}
		return 100 * float64(us) / float64(wall)
	}
	for _, r := range tl.rounds {
		fmt.Fprintf(w, "%5d  %7.1f  %6.1f   %6.1f\n",
			r.round, float64(r.wall)/1e3, pct(r.local, r.wall), pct(r.unattr, r.wall))
		tot.wall += r.wall
		tot.local += r.local
		tot.unattr += r.unattr
	}
	fmt.Fprintf(w, "\nbreakdown:  local-compute %.1f%%, unattributed %.1f%% of %.3fs round wall-clock\n",
		pct(tot.local, tot.wall), pct(tot.unattr, tot.wall), float64(tot.wall)/1e6)
}
