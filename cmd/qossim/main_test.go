package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTextOutput(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{"-log", "NASA", "-jobs", "120", "-a", "0.7", "-u", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"QoS", "utilization", "lost work", "checkpoints"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"-jobs", "80", "-json"}); err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &report); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if _, ok := report["QoS"]; !ok {
		t.Errorf("JSON missing QoS: %v", report)
	}
}

func TestRunSideFiles(t *testing.T) {
	dir := t.TempDir()
	perjob := filepath.Join(dir, "jobs.csv")
	failrec := filepath.Join(dir, "fails.csv")
	journal := filepath.Join(dir, "journal.jsonl")
	var sb strings.Builder
	err := run(&sb, []string{
		"-jobs", "60", "-perjob", perjob, "-failrec", failrec,
		"-journal", journal, "-calibration", "-breakdown",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{perjob, failrec, journal} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	if !strings.Contains(sb.String(), "promise reliability") {
		t.Error("calibration section missing")
	}
	if !strings.Contains(sb.String(), "by job size") {
		t.Error("breakdown section missing")
	}
}

func TestRunPolicyAndVariantFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "50", "-policy", "periodic"},
		{"-jobs", "50", "-policy", "never"},
		{"-jobs", "50", "-no-deadline-skip", "-no-fault-aware", "-no-negotiate", "-pure-forecast"},
		{"-jobs", "50", "-horizon-hours", "12"},
	} {
		var sb strings.Builder
		if err := run(&sb, args); err != nil {
			t.Errorf("args %v: %v", args, err)
		}
	}
	var sb strings.Builder
	if err := run(&sb, []string{"-policy", "bogus"}); err == nil || !strings.Contains(err.Error(), "one of risk, periodic, never") {
		t.Errorf("bogus policy: err = %v, want it refused with the valid names", err)
	}
	if err := run(&sb, []string{"-log", "/does/not/exist.swf"}); err == nil {
		t.Error("missing SWF accepted")
	}
}

func TestRunSWFWorkload(t *testing.T) {
	dir := t.TempDir()
	swf := filepath.Join(dir, "log.swf")
	f, err := os.Create(swf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("1 0 -1 600 4 -1 -1 4 600 -1 1 -1 -1 -1 -1 -1 -1 -1\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(&sb, []string{"-log", swf}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(1 jobs)") {
		t.Errorf("SWF workload not loaded:\n%s", sb.String())
	}
}

func TestRunMonitorPredictor(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"-jobs", "60", "-log", "NASA", "-monitor", "-u", "0.5"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "QoS") {
		t.Errorf("monitor run output wrong:\n%s", sb.String())
	}
	if err := run(&sb, []string{"-monitor", "-failures", "/tmp/nonexistent.csv"}); err == nil {
		t.Error("monitor with -failures should be rejected")
	}
}

func TestRunJSONFoldsSections(t *testing.T) {
	var sb strings.Builder
	err := run(&sb, []string{"-jobs", "80", "-json", "-breakdown", "-calibration", "-profile"})
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		QoS         *float64         `json:"QoS"`
		Breakdown   []map[string]any `json:"breakdown"`
		Calibration *struct {
			Bins []struct {
				Lo           *float64 `json:"lo"`
				Hi           *float64 `json:"hi"`
				Settled      *int     `json:"settled"`
				PromisedMean *float64 `json:"promised_mean"`
				Observed     *float64 `json:"observed"`
				WorkShare    *float64 `json:"work_share"`
			} `json:"bins"`
			Overconfidence *float64 `json:"overconfidence"`
		} `json:"calibration"`
		Profile []struct {
			Phase string `json:"phase"`
			Calls uint64 `json:"calls"`
		} `json:"profile"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &payload); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if payload.QoS == nil {
		t.Error("report fields missing")
	}
	if len(payload.Breakdown) == 0 {
		t.Error("breakdown not folded into JSON")
	}
	if payload.Calibration == nil || len(payload.Calibration.Bins) != 10 || payload.Calibration.Overconfidence == nil {
		t.Fatalf("calibration not folded into JSON: %+v", payload.Calibration)
	}
	// The bins carry the promise ledger's shape plus the work share, and
	// between them hold every job's promise and all of the work.
	var settled int
	var share float64
	for _, b := range payload.Calibration.Bins {
		if b.Lo == nil || b.Hi == nil || b.Settled == nil || b.PromisedMean == nil || b.Observed == nil || b.WorkShare == nil {
			t.Fatalf("calibration bin missing a key: %+v", b)
		}
		settled += *b.Settled
		share += *b.WorkShare
	}
	if settled != 80 || math.Abs(share-1) > 1e-9 {
		t.Errorf("calibration bins hold %d promises and %v of the work, want 80 and 1", settled, share)
	}
	if len(payload.Profile) == 0 || payload.Profile[0].Phase != "dispatch" || payload.Profile[0].Calls == 0 {
		t.Errorf("profile not folded into JSON: %+v", payload.Profile)
	}
	// The folded document is the whole output: nothing printed around it.
	var extra any
	dec := json.NewDecoder(strings.NewReader(sb.String()))
	if err := dec.Decode(&extra); err != nil {
		t.Fatal(err)
	}
	if dec.More() {
		t.Error("trailing content after the JSON document")
	}
}

func TestRunJSONOmitsSectionsByDefault(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"-jobs", "60", "-json"}); err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &report); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"breakdown", "calibration", "profile"} {
		if _, ok := report[key]; ok {
			t.Errorf("%s present without its flag", key)
		}
	}
}

func TestRunObservabilityFlags(t *testing.T) {
	series := filepath.Join(t.TempDir(), "series.csv")
	var sb strings.Builder
	err := run(&sb, []string{
		"-jobs", "80", "-serve", "127.0.0.1:0", "-profile",
		"-series", series, "-sample-mins", "30",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "serving metrics on http://127.0.0.1:") {
		t.Errorf("serve banner missing:\n%s", out)
	}
	if !strings.Contains(out, "phase profile (wall-clock):") || !strings.Contains(out, "dispatch") {
		t.Errorf("phase profile missing:\n%s", out)
	}
	data, err := os.ReadFile(series)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		t.Fatalf("series CSV too short:\n%s", data)
	}
	if !strings.HasPrefix(lines[0], "time_s,queue_depth,") {
		t.Errorf("series header = %q", lines[0])
	}
}

func TestRunRejectsBadSampleCadence(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"-jobs", "20", "-profile", "-sample-mins", "0"}); err == nil {
		t.Error("non-positive -sample-mins accepted")
	}
}
