package main

import (
	"fmt"
	"strings"
	"testing"
)

// gatedOutput returns result lines for every gated benchmark, each at its
// bound, with the line of gate skip left out and gate over's lines one
// allocation over it. An exempt sub-benchmark reports far more.
func gatedOutput(skip, over string) []string {
	lines := []string{"goos: linux", "pkg: probqos/internal/service"}
	for _, g := range gates {
		if g.name == skip {
			continue
		}
		allocs := max(g.maxAllocs, 0)
		if g.name == over {
			allocs++
		}
		line := func(name string, allocs float64) string {
			return fmt.Sprintf("%s-2 \t     100\t     1000 ns/op\t      64 B/op\t %v allocs/op", name, allocs)
		}
		if g.exempt != "" {
			lines = append(lines,
				line(g.name+"/a", allocs),
				line(g.name+"/"+g.exempt, allocs+1000),
				line(g.name+"/b", allocs))
			continue
		}
		lines = append(lines, line(g.name, allocs), line(g.name, allocs))
	}
	return append(lines, "PASS")
}

func TestGatesPassAtTheirBounds(t *testing.T) {
	if err := checkGates(gatedOutput("", "")); err != nil {
		t.Errorf("output at every bound failed the gates:\n%v", err)
	}
}

// TestEachGateFails: for every gated benchmark, one allocation over its
// bound and a missing benchmark each fail, and the failure names it.
func TestEachGateFails(t *testing.T) {
	for _, g := range gates {
		err := checkGates(gatedOutput(g.name, ""))
		if err == nil || !strings.Contains(err.Error(), g.name+" missing") {
			t.Errorf("output without %s: err = %v, want it reported missing", g.name, err)
		}
		if g.maxAllocs < 0 {
			continue
		}
		err = checkGates(gatedOutput("", g.name))
		if err == nil || !strings.Contains(err.Error(), g.name) {
			t.Errorf("%s one allocation over %v: err = %v, want it reported", g.name, g.maxAllocs, err)
		}
	}
}

// TestGatesCheckEverySample: one sample over the bound fails even when the
// mean of the samples meets it, and a bounded line without allocs/op
// fails.
func TestGatesCheckEverySample(t *testing.T) {
	lines := gatedOutput("", "")
	for i, l := range lines {
		if strings.HasPrefix(l, "BenchmarkRunSDSC-2") {
			lines[i] = strings.Replace(l, " 7 allocs/op", " 8 allocs/op", 1)
			lines = append(lines, strings.Replace(l, " 7 allocs/op", " 6 allocs/op", 1))
			break
		}
	}
	if err := checkGates(lines); err == nil || !strings.Contains(err.Error(), "BenchmarkRunSDSC-2 reports 8 allocs/op") {
		t.Errorf("a sample over the bound: err = %v", err)
	}
	lines = append(gatedOutput("", ""), "BenchmarkSlip-2 \t 100\t 1000 ns/op")
	if err := checkGates(lines); err == nil || !strings.Contains(err.Error(), "no allocs/op") {
		t.Errorf("a bounded line without allocs/op: err = %v", err)
	}
}
