package obs_test

// Integration test: a real synthesis run publishing into a Recorder
// while HTTP clients scrape /metrics and /status concurrently. Run
// with -race, this exercises every cross-goroutine path of the obs
// package against the actual producer, not a synthetic one.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"accals/internal/circuits"
	"accals/internal/core"
	"accals/internal/errmetric"
	"accals/internal/obs"
)

func TestLiveScrapeDuringSynthesis(t *testing.T) {
	g, err := circuits.ByName("mtp8")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	srv, err := obs.Serve("127.0.0.1:0", rec.MetricsHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	done := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(path string) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(base + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
			if _, err := io.ReadAll(resp.Body); err != nil {
				t.Errorf("read %s: %v", path, err)
			}
			resp.Body.Close()
		}
	}
	wg.Add(2)
	go scrape("/metrics")
	go scrape("/status")

	res := core.Run(g, errmetric.ER, 0.05, core.Options{
		NumPatterns: 512,
		PatternSeed: 7,
		Params:      core.Params{Seed: 7, HasSeed: true},
		Recorder:    rec,
	})
	close(done)
	wg.Wait()

	// After the run, the scrape endpoints must reflect it.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, series := range []string{
		"accals_rounds_total",
		"accals_error",
		"accals_and_count",
		`accals_lacs_total{kind="applied"}`,
		`accals_guard_activations_total{guard="single_lac"}`,
		`accals_phase_duration_seconds_bucket{phase="round",le="+Inf"}`,
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing series %s", series)
		}
	}

	resp, err = http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st obs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Running {
		t.Error("status still reports running after Finish")
	}
	// The run's facts come from the RunMeta the flow reported.
	if st.Method != "accals" || st.Circuit != "mtp8" || st.Metric != "er" || st.Bound != 0.05 ||
		st.InitialAnds != g.NumAnds() || st.Workers < 1 {
		t.Errorf("status run facts = %+v", st)
	}
	if st.StopReason != res.StopReason.String() {
		t.Errorf("status stop reason %q, result %q", st.StopReason, res.StopReason)
	}
	// Status reflects the last *attempted* round (which the bound check
	// may have rejected), so compare against the round trajectory.
	if last := res.Rounds[len(res.Rounds)-1]; st.Round != last.Round || st.Error != last.Error {
		t.Errorf("status (round %d, error %v) does not match last round (%d, %v)",
			st.Round, st.Error, last.Round, last.Error)
	}
	if int64(res.LACsApplied) != st.LACsApplied {
		t.Errorf("status lacs %d, result %d", st.LACsApplied, res.LACsApplied)
	}
}
