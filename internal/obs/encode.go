package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// BucketSnapshot is one cumulative histogram bucket of a snapshot. The
// upper bound encodes to JSON as a string ("+Inf" for the overflow bucket),
// since JSON has no infinity literal.
type BucketSnapshot struct {
	UpperBound      float64 `json:"le"`
	CumulativeCount uint64  `json:"count"`
}

type bucketJSON struct {
	UpperBound      string `json:"le"`
	CumulativeCount uint64 `json:"count"`
}

// MarshalJSON implements json.Marshaler.
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = formatFloat(b.UpperBound)
	}
	return json.Marshal(bucketJSON{UpperBound: le, CumulativeCount: b.CumulativeCount})
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *BucketSnapshot) UnmarshalJSON(data []byte) error {
	var aux bucketJSON
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	if aux.UpperBound == "+Inf" {
		b.UpperBound = math.Inf(1)
	} else {
		v, err := strconv.ParseFloat(aux.UpperBound, 64)
		if err != nil {
			return fmt.Errorf("obs: bucket bound %q: %w", aux.UpperBound, err)
		}
		b.UpperBound = v
	}
	b.CumulativeCount = aux.CumulativeCount
	return nil
}

// SeriesSnapshot is one instrument (one label set) of a metric family at a
// point in time.
type SeriesSnapshot struct {
	Labels Labels `json:"labels,omitempty"`
	// Value carries the counter or gauge value; histograms use Count, Sum,
	// and Buckets instead.
	Value   float64          `json:"value"`
	Count   uint64           `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []BucketSnapshot `json:"buckets,omitempty"`
}

// MetricSnapshot is one metric family at a point in time.
type MetricSnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot captures every registered metric, families sorted by name and
// instruments by label set, so equal registry states encode identically.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	families := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		families = append(families, f)
	}
	r.mu.Unlock()
	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })

	out := make([]MetricSnapshot, 0, len(families))
	for _, f := range families {
		ms := MetricSnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		f.mu.Lock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch c := f.children[k].(type) {
			case *Counter:
				ms.Series = append(ms.Series, SeriesSnapshot{Labels: copyLabels(c.labels), Value: c.Value()})
			case *Gauge:
				ms.Series = append(ms.Series, SeriesSnapshot{Labels: copyLabels(c.labels), Value: c.Value()})
			case *Histogram:
				ss := SeriesSnapshot{Labels: copyLabels(c.labels), Sum: c.Sum()}
				var cum uint64
				for i, b := range c.bounds {
					cum += c.counts[i].Load()
					ss.Buckets = append(ss.Buckets, BucketSnapshot{UpperBound: b, CumulativeCount: cum})
				}
				cum += c.counts[len(c.bounds)].Load()
				ss.Buckets = append(ss.Buckets, BucketSnapshot{UpperBound: math.Inf(1), CumulativeCount: cum})
				ss.Count = cum
				ms.Series = append(ms.Series, ss)
			}
		}
		f.mu.Unlock()
		out = append(out, ms)
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ms := range r.Snapshot() {
		if ms.Help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", ms.Name, escapeHelp(ms.Help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", ms.Name, ms.Type)
		for _, ss := range ms.Series {
			lk := renderLabels(ss.Labels)
			if ms.Type == "histogram" {
				for _, b := range ss.Buckets {
					le := "+Inf"
					if !math.IsInf(b.UpperBound, 1) {
						le = formatFloat(b.UpperBound)
					}
					fmt.Fprintf(bw, "%s_bucket%s %d\n", ms.Name, mergeLabelKey(lk, `le="`+le+`"`), b.CumulativeCount)
				}
				fmt.Fprintf(bw, "%s_sum%s %s\n", ms.Name, lk, formatFloat(ss.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", ms.Name, lk, ss.Count)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", ms.Name, lk, formatFloat(ss.Value))
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: write prometheus: %w", err)
	}
	return nil
}

// escapeHelp escapes a HELP string per the Prometheus text format, where
// backslash and newline (but not quote) must be escaped. An embedded
// newline would otherwise truncate the comment and corrupt the line after
// it.
func escapeHelp(help string) string {
	if !strings.ContainsAny(help, "\\\n") {
		return help
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(help)
}

// mergeLabelKey splices an extra label pair into a rendered `{...}` label
// string (or wraps it when there are no base labels).
func mergeLabelKey(rendered, extra string) string {
	if rendered == "" {
		return "{" + extra + "}"
	}
	return rendered[:len(rendered)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
