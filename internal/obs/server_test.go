package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	r := NewRecorder()
	r.RunMeta(RunMeta{Method: "accals", Circuit: "mtp8", Metric: "er", Bound: 0.05, InitialAnds: 337})
	r.BeginRound(3)
	r.Round(RoundEvent{Round: 3, Multi: true, Error: 0.01, NumAnds: 310, Applied: make([]AppliedLAC, 6)})
	r.BeginRound(4)
	r.Round(RoundEvent{Round: 4, GuardSingle: true, Error: 0.012, NumAnds: 300, Applied: make([]AppliedLAC, 1)})

	srv, err := Serve("127.0.0.1:0", r.MetricsHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, metrics := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"accals_round 4",
		"accals_error 0.012",
		"accals_and_count 300",
		`accals_guard_activations_total{guard="single_lac"} 1`,
		`accals_lacs_total{kind="applied"} 7`,
		"# TYPE accals_phase_duration_seconds histogram",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	code, status := get(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status status %d", code)
	}
	var s Status
	if err := json.Unmarshal([]byte(status), &s); err != nil {
		t.Fatalf("/status not JSON: %v\n%s", err, status)
	}
	if s.Round != 4 || s.NumAnds != 300 || !s.Running || s.GuardSingle != 1 || s.LACsApplied != 7 || s.InitialAnds != 337 {
		t.Fatalf("/status = %+v", s)
	}

	code, vars := get(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(vars, "memstats") {
		t.Fatalf("/debug/vars status %d:\n%.120s", code, vars)
	}

	code, healthz := get(t, base+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	var h struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Round         int     `json:"round"`
		Running       bool    `json:"running"`
	}
	if err := json.Unmarshal([]byte(healthz), &h); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, healthz)
	}
	if h.Status != "ok" || h.Round != 4 || !h.Running || h.UptimeSeconds < 0 {
		t.Fatalf("/healthz = %+v", h)
	}
}

func TestServeBindConflict(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Serve(srv.Addr(), http.NotFoundHandler()); err == nil {
		t.Fatalf("Serve on taken address %s: want bind error, got nil", srv.Addr())
	}
}

func TestServerErr(t *testing.T) {
	// A clean Close is not an error: http.ErrServerClosed is the normal
	// shutdown signal and must not surface through Err or Close.
	srv, err := Serve("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("Err while serving = %v, want nil", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("clean Close = %v, want nil", err)
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("Err after clean Close = %v, want nil", err)
	}

	// A server whose listener dies underneath it is a real failure:
	// Serve returns a non-ErrServerClosed error that Err must retain
	// (previously it was dropped on the floor).
	srv, err = Serve("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	srv.ln.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("Err never surfaced the background serve failure")
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Err(); err == nil || strings.Contains(err.Error(), "Server closed") {
		t.Fatalf("Err = %v, want the underlying accept failure", err)
	}
}

func TestPprofServer(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", PprofHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, fmt.Sprintf("http://%s/debug/pprof/", srv.Addr()))
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index status %d:\n%.120s", code, body)
	}
}

// TestServerCloseUnderLoad shuts the server down while a pool of
// clients hammers it. Close must return with Err() nil (a clean
// shutdown), every in-flight request must get either a response or a
// connection error — never a hang — and the server's goroutines must
// be gone afterwards.
func TestServerCloseUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	r := NewRecorder()
	r.RunMeta(RunMeta{Method: "accals", Circuit: "mtp8", Metric: "er", Bound: 0.05, InitialAnds: 337})
	srv, err := Serve("127.0.0.1:0", r.MetricsHandler())
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + srv.Addr() + "/metrics"

	// Clients loop until the server goes away; each request must
	// terminate promptly one way or the other.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var served atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(url)
				if err != nil {
					continue // shutdown raced the request; expected
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				served.Add(1)
			}
		}()
	}

	// Let the load build, then close mid-flight.
	deadline := time.Now().Add(5 * time.Second)
	for served.Load() < 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if served.Load() == 0 {
		t.Fatal("no request succeeded before shutdown")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("Err after clean Close: %v", err)
	}
	close(stop)
	wg.Wait()

	// A second Close is a harmless no-op.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The accept loop and every per-connection goroutine must exit.
	hygiene := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(hygiene) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines %d > baseline %d after Close\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
