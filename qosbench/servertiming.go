package main

import (
	"fmt"
	"strconv"
	"strings"
)

// serverTiming is one parsed Server-Timing header: span name to total
// duration in milliseconds, in header order.
type serverTiming struct {
	names []string
	ms    map[string]float64
}

// parseServerTiming parses the header qosd emits: comma-separated
// `name;dur=<ms>` entries, one per span name with the durations of
// repeated spans already summed. Entries without a dur parameter count as
// zero; a malformed dur is an error.
func parseServerTiming(h string) (serverTiming, error) {
	st := serverTiming{ms: map[string]float64{}}
	for _, entry := range strings.Split(h, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return serverTiming{}, fmt.Errorf("server-timing entry %q has no name", entry)
		}
		dur := 0.0
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			d, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return serverTiming{}, fmt.Errorf("server-timing entry %q: %w", entry, err)
			}
			dur = d
		}
		if _, seen := st.ms[name]; !seen {
			st.names = append(st.names, name)
		}
		st.ms[name] += dur
	}
	return st, nil
}

// selfMs is the parent span's duration minus the part its children
// cover. Every span qosd records inside a request handler is a direct
// child of that handler's http.* span, so the children are all the other
// entries. Rounding in the header can make the sum exceed the parent by a
// few microseconds; self time never goes below zero.
func (st serverTiming) selfMs(parent string) float64 {
	self := st.ms[parent]
	for _, n := range st.names {
		if n != parent {
			self -= st.ms[n]
		}
	}
	return max(self, 0)
}
