package experiment

import (
	"strings"
	"testing"

	"probqos/internal/table"
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

// runOne runs one experiment through RunAll on a fresh test Env.
func runOne(t *testing.T, id string) []*table.Table {
	t.Helper()
	exp, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q is not registered", id)
	}
	res := RunAll(testEnv(), []Experiment{exp})[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Tables
}

func TestTable1SmallScale(t *testing.T) {
	tables := runOne(t, "table1")
	if len(tables) != 1 || len(tables[0].Rows) != 2 {
		t.Fatalf("table1 output: %+v", tables)
	}
	out := tables[0].String()
	if !strings.Contains(out, "NASA") || !strings.Contains(out, "SDSC") {
		t.Errorf("table1 missing logs:\n%s", out)
	}
}

func TestTable2MatchesPaperConstants(t *testing.T) {
	tables := runOne(t, "table2")
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

func TestEveryExperimentRunsSmallScale(t *testing.T) {
	// Execute every experiment definition end to end at small scale; the
	// full-scale versions are exercised by cmd/qossweep and the benchmark
	// harness. One RunAll over a shared env, exactly as the CLI does.
	for _, res := range RunAll(testEnv(), All()) {
		t.Run(res.Exp.ID, func(t *testing.T) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			tables := res.Tables
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
