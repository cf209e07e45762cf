package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"probqos/internal/sim"
	"probqos/internal/units"
)

// instrumentedServer builds a server over an instrument that has seen a
// little traffic, so every simulation metric family exists.
func instrumentedServer() *Server {
	reg := NewRegistry()
	ins := NewInstrument(reg, units.Minute)
	ins.Sample(sim.State{Time: 60, EventsProcessed: 1, QueueDepth: 3, RunningJobs: 1, BusyNodes: 4})
	ins.Sample(sim.State{Time: 180, EventsProcessed: 2, QueueDepth: 2, RunningJobs: 2, BusyNodes: 6})
	ins.Decision(sim.Decision{Kind: sim.DecisionCheckpointGrant, N: 1})
	ins.Phase(sim.PhaseDispatch, time.Millisecond)
	return NewServer(reg, ins)
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerStartServesMetrics(t *testing.T) {
	srv := instrumentedServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body, hdr := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	// The acceptance set: cluster state, checkpoint/failure counters, and
	// per-phase wall-clock must all be scrapable.
	for _, want := range []string{
		"probqos_sim_queue_depth 2",
		"probqos_sim_nodes_busy 6",
		`probqos_sim_checkpoints_total{decision="granted"} 1`,
		`probqos_sim_checkpoints_total{decision="skipped"} 0`,
		`probqos_sim_failures_total{outcome="job-killed"} 0`,
		`probqos_sim_phase_seconds_total{phase="dispatch"} 0.001`,
		"probqos_sim_events_total 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

func TestServerHealthz(t *testing.T) {
	srv := instrumentedServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, hdr := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var health struct {
		Status string  `json:"status"`
		Uptime float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Uptime < 0 {
		t.Errorf("health = %+v", health)
	}
}

func TestServerSnapshot(t *testing.T) {
	srv := instrumentedServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body, _ := get(t, ts.URL+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot status = %d", code)
	}
	var snap struct {
		Metrics []MetricSnapshot `json:"metrics"`
		Series  []Point          `json:"series"`
		Profile []PhaseStat      `json:"profile"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v\n%s", err, body)
	}
	if len(snap.Metrics) == 0 || len(snap.Series) != 2 || len(snap.Profile) != len(sim.AllPhases()) {
		t.Errorf("snapshot shape: %d metrics, %d series, %d profile",
			len(snap.Metrics), len(snap.Series), len(snap.Profile))
	}

	// Tail selection.
	code, body, _ = get(t, ts.URL+"/snapshot?n=1")
	if code != http.StatusOK {
		t.Fatalf("/snapshot?n=1 status = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Series) != 1 || snap.Series[0].Time != 180 {
		t.Errorf("tail = %+v, want the final point", snap.Series)
	}

	// Invalid n is a client error.
	if code, _, _ = get(t, ts.URL+"/snapshot?n=-1"); code != http.StatusBadRequest {
		t.Errorf("/snapshot?n=-1 status = %d, want 400", code)
	}
	if code, _, _ = get(t, ts.URL+"/snapshot?n=x"); code != http.StatusBadRequest {
		t.Errorf("/snapshot?n=x status = %d, want 400", code)
	}
}

func TestServerWithoutSamplerOrProfiler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lonely_total", "h", nil).Inc()
	srv := NewServer(reg, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, body, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK || !strings.Contains(body, "lonely_total 1") {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}
	code, body, _ := get(t, ts.URL+"/snapshot")
	if code != http.StatusOK {
		t.Fatalf("/snapshot status = %d", code)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap["series"]; ok {
		t.Error("series present without an instrument")
	}
	if _, ok := snap["profile"]; ok {
		t.Error("profile present without an instrument")
	}
}

func TestServerCloseUnstarted(t *testing.T) {
	if err := NewServer(NewRegistry(), nil).Close(); err != nil {
		t.Errorf("close of unstarted server: %v", err)
	}
}
