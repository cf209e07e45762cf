// Command benchjson folds `go test -bench` output into the repo's
// BENCH_sweep.json performance trajectory. Each invocation appends (or, for
// an existing label, replaces) one labelled run holding both parsed numbers
// and the raw benchfmt lines, so the file stays consumable two ways:
//
//	jq '.runs[] | {label, benchmarks}' BENCH_sweep.json
//	jq -r '.runs[0].benchfmt[]' BENCH_sweep.json > old.txt   # then benchstat old.txt new.txt
//
// Before it writes, it checks the input against the allocation gates (see
// gates): every gated benchmark must be present, and every sample line of
// one with an allocation bound must meet it. A failed gate exits 1 and
// leaves the trajectory as it was. The input is therefore the full output
// of scripts/bench.sh, which pipes it here:
//
//	go test -bench ... | go run ./scripts/benchjson -label after -out BENCH_sweep.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type benchmark struct {
	Name        string  `json:"name"`
	Samples     int     `json:"samples"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type run struct {
	Label      string      `json:"label"`
	Date       string      `json:"date,omitempty"`
	Jobs       int         `json:"jobs,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
	// Benchfmt preserves the raw benchmark and config lines verbatim for
	// benchstat; ns/op means above are per-benchmark sample averages.
	Benchfmt []string `json:"benchfmt"`
}

type trajectory struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	Runs   []run  `json:"runs"`
}

const schemaID = "probqos-bench/v1"

func main() {
	label := flag.String("label", "", "run label, e.g. baseline or after (required)")
	out := flag.String("out", "BENCH_sweep.json", "trajectory file to update")
	jobs := flag.Int("jobs", 0, "workload scale the sweep benchmarks ran at")
	date := flag.String("date", "", "ISO date stamp recorded on the run")
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -label is required")
		os.Exit(2)
	}

	r, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := checkGates(r.Benchfmt); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: FAIL:", err)
		os.Exit(1)
	}
	r.Label = *label
	r.Jobs = *jobs
	r.Date = *date

	traj, err := load(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	replaced := traj.upsert(r)

	buf, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	verb := "appended"
	if replaced {
		verb = "replaced"
	}
	fmt.Printf("benchjson: %s run %q (%d benchmarks) in %s\n", verb, r.Label, len(r.Benchmarks), *out)
}

// upsert replaces the run carrying r's label, or appends r if no run does.
// It reports whether a run was replaced.
func (t *trajectory) upsert(r run) bool {
	for i := range t.Runs {
		if t.Runs[i].Label == r.Label {
			t.Runs[i] = r
			return true
		}
	}
	t.Runs = append(t.Runs, r)
	return false
}

func load(path string) (trajectory, error) {
	traj := trajectory{Schema: schemaID, Go: runtime.Version()}
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return traj, nil
	}
	if err != nil {
		return traj, err
	}
	if len(strings.TrimSpace(string(buf))) == 0 {
		return traj, nil
	}
	if err := json.Unmarshal(buf, &traj); err != nil {
		return traj, fmt.Errorf("%s: %v", path, err)
	}
	if traj.Schema != schemaID {
		return traj, fmt.Errorf("%s: schema %q, want %q", path, traj.Schema, schemaID)
	}
	traj.Go = runtime.Version()
	// Migrate runs recorded before values were rounded: averaging three
	// samples in binary floating point left artifacts like
	// 125.40000000000002 ns/op in the trajectory.
	for i := range traj.Runs {
		for j := range traj.Runs[i].Benchmarks {
			b := &traj.Runs[i].Benchmarks[j]
			b.NsPerOp = round3(b.NsPerOp)
			b.BytesPerOp = round3(b.BytesPerOp)
			b.AllocsPerOp = round3(b.AllocsPerOp)
		}
	}
	return traj, nil
}

// round3 rounds to three decimal places: well past benchmark noise, and
// stable enough that trajectory diffs show real movement instead of
// float-average artifacts.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// parse folds benchfmt text into one run: config lines and benchmark result
// lines are kept verbatim, and samples of the same benchmark are averaged.
func parse(f io.Reader) (run, error) {
	var r run
	agg := map[string]*benchmark{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			r.Benchfmt = append(r.Benchfmt, line)
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// name iterations value ns/op [value B/op value allocs/op ...]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		r.Benchfmt = append(r.Benchfmt, line)
		b, ok := agg[fields[0]]
		if !ok {
			b = &benchmark{Name: fields[0]}
			agg[fields[0]] = b
			order = append(order, fields[0])
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return r, fmt.Errorf("bad ns/op in %q: %v", line, err)
		}
		b.Samples++
		b.NsPerOp += ns
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				b.BytesPerOp += v
			case "allocs/op":
				b.AllocsPerOp += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if len(order) == 0 {
		return r, fmt.Errorf("no benchmark result lines on stdin")
	}
	for _, name := range order {
		b := agg[name]
		n := float64(b.Samples)
		b.NsPerOp = round3(b.NsPerOp / n)
		b.BytesPerOp = round3(b.BytesPerOp / n)
		b.AllocsPerOp = round3(b.AllocsPerOp / n)
		r.Benchmarks = append(r.Benchmarks, *b)
	}
	return r, nil
}
