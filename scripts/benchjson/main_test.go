package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseAveragesSamplesAndKeepsBenchfmt(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: probqos/internal/sim",
		"cpu: Example CPU @ 2.00GHz",
		"BenchmarkRun-2   \t     100\t     10000 ns/op\t    2048 B/op\t      10 allocs/op",
		"BenchmarkRun-2   \t     100\t     12000 ns/op\t    2048 B/op\t      12 allocs/op",
		"BenchmarkRun-2   \t     100\t     11000 ns/op\t    2048 B/op\t      11 allocs/op",
		"BenchmarkQuote-2 \t    5000\t       250.5 ns/op",
		"--- BENCH: BenchmarkRun-2",
		"PASS",
		"ok  \tprobqos/internal/sim\t3.210s",
	}, "\n")
	r, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []benchmark{
		{Name: "BenchmarkRun-2", Samples: 3, NsPerOp: 11000, BytesPerOp: 2048, AllocsPerOp: 11},
		{Name: "BenchmarkQuote-2", Samples: 1, NsPerOp: 250.5},
	}
	if !reflect.DeepEqual(r.Benchmarks, want) {
		t.Errorf("benchmarks = %+v\nwant %+v", r.Benchmarks, want)
	}
	// Config and result lines survive verbatim, in input order; nothing
	// else does.
	lines := strings.Split(in, "\n")
	if wantFmt := lines[:8]; !reflect.DeepEqual(r.Benchfmt, wantFmt) {
		t.Errorf("benchfmt = %q\nwant %q", r.Benchfmt, wantFmt)
	}
}

func TestParseRejectsInputWithoutResults(t *testing.T) {
	if _, err := parse(strings.NewReader("goos: linux\nPASS\n")); err == nil {
		t.Error("input without benchmark result lines accepted")
	}
}

func TestRound3(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{125.40000000000002, 125.4},
		{2.3456, 2.346},
		{2.3454, 2.345},
		{1e6 / 3, 333333.333},
		{0, 0},
	} {
		if got := round3(tc.in); got != tc.want {
			t.Errorf("round3(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestUpsertReplacesExistingLabel(t *testing.T) {
	traj := trajectory{Runs: []run{{Label: "baseline", Jobs: 1}, {Label: "after", Jobs: 2}}}
	if traj.upsert(run{Label: "baseline", Jobs: 3}) != true {
		t.Error("upsert of an existing label reported an append")
	}
	if traj.upsert(run{Label: "new", Jobs: 4}) != false {
		t.Error("upsert of a new label reported a replacement")
	}
	want := []run{{Label: "baseline", Jobs: 3}, {Label: "after", Jobs: 2}, {Label: "new", Jobs: 4}}
	if !reflect.DeepEqual(traj.Runs, want) {
		t.Errorf("runs = %+v\nwant %+v", traj.Runs, want)
	}
}

func TestLoadMigratesUnroundedRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	prior := `{"schema": "probqos-bench/v1", "go": "go1.0", "runs": [
	  {"label": "old", "benchmarks": [
	    {"name": "BenchmarkRun-2", "samples": 3, "ns_per_op": 125.40000000000002,
	     "bytes_per_op": 10.000000000000002, "allocs_per_op": 0.30000000000000004}],
	   "benchfmt": ["BenchmarkRun-2 100 125 ns/op"]}]}`
	if err := os.WriteFile(path, []byte(prior), 0o644); err != nil {
		t.Fatal(err)
	}
	traj, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	b := traj.Runs[0].Benchmarks[0]
	if b.NsPerOp != 125.4 || b.BytesPerOp != 10 || b.AllocsPerOp != 0.3 {
		t.Errorf("migrated benchmark = %+v, want 125.4 ns/op, 10 B/op, 0.3 allocs/op", b)
	}
	if traj.Go == "go1.0" {
		t.Error("load kept the prior Go version instead of stamping the current one")
	}

	// A missing file starts a fresh trajectory; a foreign schema is refused.
	fresh, err := load(filepath.Join(dir, "missing.json"))
	if err != nil || fresh.Schema != schemaID || len(fresh.Runs) != 0 {
		t.Errorf("load of a missing file = %+v, %v; want an empty %s trajectory", fresh, err, schemaID)
	}
	if err := os.WriteFile(path, []byte(`{"schema": "other/v9", "runs": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil {
		t.Error("foreign schema accepted")
	}
}
