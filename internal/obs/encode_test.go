package obs

import (
	"math"
	"strings"
	"testing"
)

func exampleRegistry() *Registry {
	r := NewRegistry()
	r.Counter("app_requests_total", "Requests served.", Labels{"code": "200"}).Add(7)
	r.Counter("app_requests_total", "Requests served.", Labels{"code": "500"}).Inc()
	r.Gauge("app_temperature", "Current temperature.", nil).Set(36.6)
	h := r.Histogram("app_latency_seconds", "Request latency.", []float64{0.1, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	return r
}

func TestWritePrometheus(t *testing.T) {
	var sb strings.Builder
	if err := exampleRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		"# HELP app_requests_total Requests served.",
		"# TYPE app_requests_total counter",
		`app_requests_total{code="200"} 7`,
		`app_requests_total{code="500"} 1`,
		"# TYPE app_temperature gauge",
		"app_temperature 36.6",
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{le="0.1"} 1`,
		`app_latency_seconds_bucket{le="1"} 2`,
		`app_latency_seconds_bucket{le="+Inf"} 3`,
		"app_latency_seconds_sum 5.55",
		"app_latency_seconds_count 3",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q\n%s", want, got)
		}
	}
	// Families are sorted by name, so the histogram comes first.
	if !strings.HasPrefix(got, "# HELP app_latency_seconds") {
		t.Errorf("families not sorted:\n%s", got)
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	// The Prometheus text format requires `\`, `"`, and newline in label
	// values to appear as \\, \", and \n. Each case exercises one
	// character alone, plus one combined value, so a regression in any
	// single replacement is caught by name.
	cases := []struct {
		name, value, want string
	}{
		{"quote", `say "hi"`, `esc_total{msg="say \"hi\""} 1`},
		{"backslash", `C:\temp`, `esc_total{msg="C:\\temp"} 1`},
		{"newline", "two\nlines", `esc_total{msg="two\nlines"} 1`},
		{"combined", "say \"hi\"\\\n", `esc_total{msg="say \"hi\"\\\n"} 1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("esc_total", "h", Labels{"msg": tc.value}).Inc()
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), tc.want) {
				t.Errorf("escaping wrong, want %s in:\n%s", tc.want, sb.String())
			}
			// Whatever the escaping did, the exposition must stay
			// line-oriented: every line is a comment or ends in a value.
			for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
				if line == "" {
					t.Errorf("raw newline leaked into exposition:\n%s", sb.String())
				}
			}
		})
	}
}

func TestPrometheusHelpEscaping(t *testing.T) {
	// HELP text escapes backslash and newline (quotes stay literal). An
	// unescaped newline would truncate the comment mid-way and leave the
	// remainder as a junk line that breaks scrapers.
	r := NewRegistry()
	r.Counter("helpesc_total", "first line\nsecond \\ line \"quoted\"", nil).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP helpesc_total first line\nsecond \\ line "quoted"`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("help escaping wrong, want %q in:\n%s", want, sb.String())
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "# TYPE helpesc_total") {
		t.Errorf("help text broke line structure:\n%s", sb.String())
	}
}

func TestHistogramBucketLabelsMerge(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lab_seconds", "h", []float64{1}, Labels{"phase": "x"}).Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `lab_seconds_bucket{phase="x",le="1"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("le label not merged, want %s in:\n%s", want, sb.String())
	}
}

func TestSnapshotShape(t *testing.T) {
	snap := exampleRegistry().Snapshot()
	if len(snap) != 3 {
		t.Fatalf("families = %d, want 3", len(snap))
	}
	// Sorted by name: latency, requests, temperature.
	if snap[0].Name != "app_latency_seconds" || snap[2].Name != "app_temperature" {
		t.Errorf("snapshot order: %s, %s, %s", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	req := snap[1]
	if len(req.Series) != 2 || req.Series[0].Labels["code"] != "200" {
		t.Errorf("label series wrong: %+v", req.Series)
	}
	hist := snap[0].Series[0]
	if hist.Count != 3 || hist.Sum != 5.55 {
		t.Errorf("histogram snapshot: count=%d sum=%v", hist.Count, hist.Sum)
	}
	last := hist.Buckets[len(hist.Buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.CumulativeCount != 3 {
		t.Errorf("+Inf bucket wrong: %+v", last)
	}
}
