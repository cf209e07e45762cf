package experiment

import (
	"strings"
	"testing"
)

// testEnv is scaled down so the whole suite stays fast while still
// exercising every experiment end to end.
func testEnv() *Env {
	e := NewEnv()
	e.JobCount = 400
	e.Seed = 11
	return e
}

func TestAllExperimentsHaveUniqueIDs(t *testing.T) {
	seen := make(map[string]bool)
	for _, exp := range All() {
		if exp.ID == "" || exp.Title == "" || exp.Paper == "" || exp.Run == nil {
			t.Errorf("experiment %q is incomplete", exp.ID)
		}
		if seen[exp.ID] {
			t.Errorf("duplicate experiment ID %q", exp.ID)
		}
		seen[exp.ID] = true
	}
	// Every paper artifact must be covered.
	for _, want := range []string{
		"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "headline",
	} {
		if !seen[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig1"); !ok {
		t.Error("fig1 not found")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Error("nonsense should not resolve")
	}
}

func TestTable1SmallScale(t *testing.T) {
	e := testEnv()
	exp, _ := ByID("table1")
	tables, err := exp.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("table1 output: %+v", tables)
	}
	out := tables[0].String()
	if !strings.Contains(out, "NASA") || !strings.Contains(out, "SDSC") {
		t.Errorf("table1 missing logs:\n%s", out)
	}
}

func TestTable2MatchesPaperConstants(t *testing.T) {
	e := testEnv()
	exp, _ := ByID("table2")
	tables, err := exp.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	out := tables[0].String()
	for _, want := range []string{"128", "720", "3600", "120"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 missing %q:\n%s", want, out)
		}
	}
}

func TestPointMemoization(t *testing.T) {
	e := testEnv()
	a, err := e.Point("NASA", 0.5, 0.5, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Point("NASA", 0.5, 0.5, "")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("memoized point differs from first computation")
	}
	if _, err := e.Point("NASA", 0.5, 0.5, "bogus-variant"); err == nil {
		t.Error("unknown variant must error")
	}
}

func TestPrefetchParallelMatchesSerial(t *testing.T) {
	serial := testEnv()
	serial.Workers = 1
	parallel := testEnv()
	parallel.Workers = 4
	specs := []PointSpec{
		{Log: "NASA", A: 0, U: 0.5},
		{Log: "NASA", A: 1, U: 0.5},
		{Log: "NASA", A: 0.5, U: 0.9},
		{Log: "NASA", A: 0.5, U: 0.9}, // duplicate on purpose
	}
	if err := serial.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Prefetch(specs); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		a, err := serial.Point(s.Log, s.A, s.U, s.Variant)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.Point(s.Log, s.A, s.U, s.Variant)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("parallel point %+v differs from serial", s)
		}
	}
}

func TestEveryExperimentRunsSmallScale(t *testing.T) {
	// Execute every experiment definition end to end at small scale; the
	// full-scale versions are exercised by cmd/qossweep and the benchmark
	// harness. The shared env memoizes points across experiments exactly
	// as the CLI does.
	e := testEnv()
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tables, err := exp.Run(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tbl := range tables {
				if len(tbl.Rows) == 0 {
					t.Fatalf("table %q has no rows", tbl.Title)
				}
				if len(tbl.Columns) == 0 {
					t.Fatalf("table %q has no columns", tbl.Title)
				}
			}
		})
	}
}
