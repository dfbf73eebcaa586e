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

// Timeline mode (-timeline) merges the bundle's trace.jsonl — local
// phase spans, per-connection RPC round trips and clock-mapped remote
// evaluator telemetry — into a per-round wall-clock breakdown. Each
// round's window (its "round" span) is attributed to four disjoint
// buckets:
//
//	remote-compute  coordinator blocked on an RPC while a remote
//	                evaluator span was executing
//	network         the remaining blocked-on-RPC time, bounded by the
//	                connection's measured RTT per round trip
//	remote-queue    blocked-on-RPC time that is neither remote compute
//	                nor within the network bound: the frame sat in a
//	                queue (the evaluator was busy with another slice)
//	local-compute   local phase work outside any RPC wait (the local
//	                estimate span wraps the blocking dispatch call, so
//	                RPC waits are carved out of it first)
//
// Whatever remains is printed as unattributed — it is never silently
// folded into a bucket.

// traceSpan is one decoded trace.jsonl line. Missing pid/tid mean the
// coordinator's main thread (the writer omits the defaults).
type traceSpan struct {
	TUS   int64  `json:"t_us"`
	DurUS int64  `json:"dur_us"`
	Phase string `json:"phase"`
	Round int    `json:"round"`
	Proc  string `json:"proc"`
	PID   int    `json:"pid"`
	TID   int    `json:"tid"`
	NetUS int64  `json:"net_us"`
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

// subtract returns a \ b; both inputs must be merged unions.
func subtract(a, b []iv) []iv {
	var out []iv
	j := 0
	for _, v := range a {
		s := v.s
		for j < len(b) && b[j].e <= s {
			j++
		}
		k := j
		for k < len(b) && b[k].s < v.e {
			if b[k].s > s {
				out = append(out, iv{s, b[k].s})
			}
			if b[k].e > s {
				s = b[k].e
			}
			k++
		}
		if s < v.e {
			out = append(out, iv{s, v.e})
		}
	}
	return out
}

// intersect returns a ∩ b; both inputs must be merged unions.
func intersect(a, b []iv) []iv {
	var out []iv
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		s, e := max64(a[i].s, b[j].s), min64(a[i].e, b[j].e)
		if s < e {
			out = append(out, iv{s, e})
		}
		if a[i].e < b[j].e {
			i++
		} else {
			j++
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// clip intersects a span with a round window, reporting whether any
// overlap remains.
func clipSpan(s traceSpan, w iv) (iv, bool) {
	c := iv{max64(s.TUS, w.s), min64(s.TUS+s.DurUS, w.e)}
	return c, c.s < c.e
}

// roundBreakdown is one round's attributed wall-clock, all in µs.
type roundBreakdown struct {
	round  int
	wall   int64
	local  int64
	remote int64
	net    int64
	queue  int64
	unattr int64
}

// critical names the bucket that dominates the round's wall-clock.
func (r *roundBreakdown) critical() string {
	name, best := "local-compute", r.local
	for _, c := range []struct {
		name string
		us   int64
	}{
		{"remote-compute", r.remote},
		{"network", r.net},
		{"remote-queue", r.queue},
		{"unattributed", r.unattr},
	} {
		if c.us > best {
			name, best = c.name, c.us
		}
	}
	return name
}

// traceTimeline is the decoded and attributed trace of one bundle.
type traceTimeline struct {
	traceID     string
	spans       int
	remoteSpans int
	procs       []string
	rounds      []roundBreakdown
	byRound     map[int]*roundBreakdown
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
		if s.PID == 0 {
			s.PID = 1
		}
		if s.TID == 0 {
			s.TID = 1
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return spans, nil
}

// buildTimeline attributes every span to its round window.
func buildTimeline(spans []traceSpan) *traceTimeline {
	tl := &traceTimeline{spans: len(spans), byRound: map[int]*roundBreakdown{}}
	procSeen := map[string]bool{}

	// Round windows come from the coordinator's "round" spans.
	type window struct {
		round int
		w     iv
	}
	var windows []window
	for _, s := range spans {
		if s.Phase == "round" && s.PID == 1 && s.TID == 1 {
			windows = append(windows, window{s.Round, iv{s.TUS, s.TUS + s.DurUS}})
		}
		if s.Proc != "" || s.PID > 1 {
			tl.remoteSpans++
			if s.Proc != "" && !procSeen[s.Proc] {
				procSeen[s.Proc] = true
				tl.procs = append(tl.procs, s.Proc)
			}
		}
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].round < windows[j].round })
	sort.Strings(tl.procs)

	for _, win := range windows {
		var localIv, remoteIv, rpcIv []iv
		var netBudget int64
		for _, s := range spans {
			c, ok := clipSpan(s, win.w)
			if !ok {
				continue
			}
			switch {
			case strings.HasPrefix(s.Phase, "rpc:"):
				rpcIv = append(rpcIv, c)
				netBudget += min64(s.NetUS, c.e-c.s)
			case s.Proc != "" || s.PID > 1:
				remoteIv = append(remoteIv, c)
			case s.TID == 1 && s.Phase != "round":
				localIv = append(localIv, c)
			}
		}
		rpcU := union(rpcIv)
		remoteU := union(remoteIv)
		localU := union(localIv)

		// Disjoint attribution: blocked-on-RPC time first (remote
		// compute within it, then the RTT-bounded network share, the
		// rest is queueing), then local work outside RPC waits.
		rb := roundBreakdown{round: win.round, wall: win.w.e - win.w.s}
		rb.remote = length(intersect(remoteU, rpcU))
		blockedRest := length(rpcU) - rb.remote
		rb.net = min64(netBudget, blockedRest)
		rb.queue = blockedRest - rb.net
		rb.local = length(subtract(localU, rpcU))
		rb.unattr = rb.wall - rb.local - rb.remote - rb.net - rb.queue
		if rb.unattr < 0 {
			rb.unattr = 0
		}
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

// printTimeline renders the merged per-round breakdown.
func printTimeline(tl *traceTimeline, w io.Writer) {
	id := tl.traceID
	if id == "" {
		id = "(no trace id in manifest)"
	}
	fmt.Fprintf(w, "\ntimeline:  trace %s — %d spans, %d remote, %d evaluator process(es)\n",
		id, tl.spans, tl.remoteSpans, len(tl.procs))
	for _, p := range tl.procs {
		fmt.Fprintf(w, "           %s\n", p)
	}
	if len(tl.rounds) == 0 {
		fmt.Fprintf(w, "           no round spans in trace\n")
		return
	}

	fmt.Fprintf(w, "\nround  wall_ms   local%%  remote%%    net%%  queue%%  unattr%%  critical\n")
	var tot roundBreakdown
	pct := func(us, wall int64) float64 {
		if wall <= 0 {
			return 0
		}
		return 100 * float64(us) / float64(wall)
	}
	for _, r := range tl.rounds {
		fmt.Fprintf(w, "%5d  %7.1f  %6.1f   %6.1f  %6.1f  %6.1f   %6.1f  %s\n",
			r.round, float64(r.wall)/1e3,
			pct(r.local, r.wall), pct(r.remote, r.wall),
			pct(r.net, r.wall), pct(r.queue, r.wall), pct(r.unattr, r.wall),
			r.critical())
		tot.wall += r.wall
		tot.local += r.local
		tot.remote += r.remote
		tot.net += r.net
		tot.queue += r.queue
		tot.unattr += r.unattr
	}
	fmt.Fprintf(w, "\nbreakdown:  local-compute %.1f%%, remote-compute %.1f%%, network %.1f%%, remote-queue %.1f%%, unattributed %.1f%% of %.3fs round wall-clock\n",
		pct(tot.local, tot.wall), pct(tot.remote, tot.wall),
		pct(tot.net, tot.wall), pct(tot.queue, tot.wall), pct(tot.unattr, tot.wall),
		float64(tot.wall)/1e6)

	// Critical-path attribution: which bucket dominated how many rounds.
	counts := map[string]int{}
	for i := range tl.rounds {
		counts[tl.rounds[i].critical()]++
	}
	type kc struct {
		name string
		n    int
	}
	var ks []kc
	for k, n := range counts {
		ks = append(ks, kc{k, n})
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].n != ks[j].n {
			return ks[i].n > ks[j].n
		}
		return ks[i].name < ks[j].name
	})
	parts := make([]string, len(ks))
	for i, k := range ks {
		parts[i] = fmt.Sprintf("%s %d of %d rounds", k.name, k.n, len(tl.rounds))
	}
	fmt.Fprintf(w, "critical path:  %s\n", strings.Join(parts, ", "))
}
