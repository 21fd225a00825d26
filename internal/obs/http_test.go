package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// get fetches a path from the test server and returns the body.
func get(t *testing.T, srv *Server, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
	}
	return string(body)
}

// TestServeEndpoint spins up the endpoint on an ephemeral localhost port
// and checks each route serves what the acceptance criteria require:
// solver counters in the Prometheus exposition, a loadable trace, and
// pprof.
func TestServeEndpoint(t *testing.T) {
	o := New()
	so := o.Solver("OGGP")
	so.Peel(0, 4, 0, 7, 12)
	so.Done(2, 99)
	o.Engine().Batch(1, 1).Done()
	o.Cluster().Step(0, time.Now(), 2*time.Millisecond, time.Millisecond, 1)

	srv, err := Serve(":0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.HasPrefix(srv.Addr(), "127.0.0.1:") {
		t.Fatalf("bare :port must bind localhost, got %s", srv.Addr())
	}

	metrics := get(t, srv, "/metrics")
	for _, want := range []string{
		"# TYPE redist_solver_peels_total_OGGP counter",
		"redist_solver_peels_total_OGGP 1",
		"redist_solver_solves_total_OGGP 1",
		"redist_engine_batches_total 1",
		"redist_cluster_steps_total 1",
		"redist_cluster_step_ratio_pct_last 200",
		`redist_solver_solve_us_OGGP_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if err := ValidatePrometheus(metrics); err != nil {
		t.Errorf("/metrics is not valid Prometheus text format: %v", err)
	}

	if body := get(t, srv, "/debug/trace"); !json.Valid([]byte(body)) || !strings.Contains(body, "traceEvents") {
		t.Errorf("/debug/trace is not a trace_event document:\n%.200s", body)
	}
	if body := get(t, srv, "/debug/pprof/cmdline"); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if body := get(t, srv, "/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index page missing route list:\n%s", body)
	}
}

// TestServeTwice re-serves with a fresh observer: the second endpoint's
// /metrics must expose the new registry.
func TestServeTwice(t *testing.T) {
	first := New()
	srv1, err := Serve(":0", first)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	second := New()
	second.Reg().Counter("marker").Add(42)
	srv2, err := Serve(":0", second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if body := get(t, srv2, "/metrics"); !strings.Contains(body, "redist_marker 42") {
		t.Errorf("/metrics did not switch to the new registry:\n%s", body)
	}
}

// TestServeNilObserver pins the error path.
func TestServeNilObserver(t *testing.T) {
	if _, err := Serve(":0", nil); err == nil {
		t.Fatal("Serve(nil) must fail")
	}
}

// TestServeProbes pins the health endpoints: /healthz is always 200,
// /readyz follows SetReady.
func TestServeProbes(t *testing.T) {
	srv, err := Serve(":0", New())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if body := get(t, srv, "/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q", body)
	}
	status := func(path string) int {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before SetReady = %d, want 503", got)
	}
	srv.SetReady(true)
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after SetReady(true) = %d, want 200", got)
	}
	srv.SetReady(false)
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz after SetReady(false) = %d, want 503", got)
	}
}

// TestServeCloseIdempotent starts an endpoint, scrapes it, then races many
// concurrent Close calls against in-flight scrapes, and finally verifies
// no server goroutine survives — the leak check the obs.Server never had.
func TestServeCloseIdempotent(t *testing.T) {
	before := runtime.NumGoroutine()

	o := New()
	o.Reg().Counter("x").Inc()
	srv, err := Serve(":0", o)
	if err != nil {
		t.Fatal(err)
	}
	_ = get(t, srv, "/metrics")

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the goroutines scrape while the other half close; errors
			// are expected once the listener is gone — the point is no panic,
			// no double-close fault, no hang.
			if resp, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if err := srv.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Errorf("Close after Close: %v", err)
	}

	// The accept loop and handler goroutines must drain. Allow a grace
	// period: goroutine teardown is asynchronous.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
}
