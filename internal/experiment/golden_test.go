package experiment

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"probqos/internal/table"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden corpus under testdata/golden")

// goldenJobCount and goldenSeed pin the corpus scale: large enough that
// the headline effects show, small enough that regenerating every
// snapshot stays in test-suite territory.
const (
	goldenJobCount = 400
	goldenSeed     = 11
)

// goldenExperiments names the snapshots: the headline claim, both paper
// tables, and the ablations that pin each predictor path (the checkpoint
// rule, the health monitor, the decaying forecast horizon, and the
// base-rate floor switched off), all sharing a single Env so the workload
// and trace caches are reused across them.
var goldenExperiments = []string{
	"headline", "table1", "table2", "ablation-checkpoint",
	"ablation-monitor", "ablation-horizon", "ablation-baserate",
}

// goldenFile is the on-disk snapshot of one experiment's output.
type goldenFile struct {
	ID       string         `json:"id"`
	JobCount int            `json:"job_count"`
	Seed     int64          `json:"seed"`
	Tables   []*table.Table `json:"tables"`
}

// goldenTolerance is the relative tolerance for numeric cells. The runs
// are deterministic, so the corpus reproduces exactly today; the headroom
// exists for legitimate refactors that reorder float arithmetic without
// changing results materially (e.g. vectorizing an accumulation).
const goldenTolerance = 1e-9

// TestGoldenCorpus recomputes the pinned experiments and diffs every cell
// against testdata/golden. Run with -update to regenerate after an
// intentional change — and justify the diff in the commit.
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("golden corpus recomputation is not short")
	}
	e := NewEnv()
	e.JobCount = goldenJobCount
	e.Seed = goldenSeed

	byID := make(map[string]Experiment)
	for _, exp := range All() {
		byID[exp.ID] = exp
	}
	var exps []Experiment
	for _, id := range goldenExperiments {
		exp, ok := byID[id]
		if !ok {
			t.Fatalf("golden experiment %q is not registered", id)
		}
		exps = append(exps, exp)
	}
	for _, res := range RunAll(e, exps) {
		id := res.Exp.ID
		t.Run(id, func(t *testing.T) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			got := goldenFile{ID: id, JobCount: goldenJobCount, Seed: goldenSeed, Tables: res.Tables}
			path := filepath.Join("testdata", "golden", id+".json")
			if *updateGolden {
				writeGolden(t, path, got)
				return
			}
			want := readGolden(t, path)
			diffGolden(t, want, got)
		})
	}
}

func writeGolden(t *testing.T, path string, g goldenFile) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

func readGolden(t *testing.T, path string) goldenFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate the corpus)", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return g
}

// diffGolden compares snapshots cell by cell: numeric cells within the
// relative tolerance, everything else exactly.
func diffGolden(t *testing.T, want, got goldenFile) {
	t.Helper()
	if want.JobCount != got.JobCount || want.Seed != got.Seed {
		t.Fatalf("corpus pinned at jobs=%d seed=%d but test ran jobs=%d seed=%d; regenerate with -update",
			want.JobCount, want.Seed, got.JobCount, got.Seed)
	}
	if len(want.Tables) != len(got.Tables) {
		t.Fatalf("%d tables, want %d", len(got.Tables), len(want.Tables))
	}
	for ti, wt := range want.Tables {
		gt := got.Tables[ti]
		if gt.Title != wt.Title {
			t.Errorf("table %d title %q, want %q", ti, gt.Title, wt.Title)
		}
		if fmt.Sprint(gt.Columns) != fmt.Sprint(wt.Columns) {
			t.Errorf("table %q columns %v, want %v", wt.Title, gt.Columns, wt.Columns)
			continue
		}
		if len(gt.Rows) != len(wt.Rows) {
			t.Errorf("table %q has %d rows, want %d", wt.Title, len(gt.Rows), len(wt.Rows))
			continue
		}
		for ri, wrow := range wt.Rows {
			grow := gt.Rows[ri]
			if len(grow) != len(wrow) {
				t.Errorf("table %q row %d has %d cells, want %d", wt.Title, ri, len(grow), len(wrow))
				continue
			}
			for ci, wcell := range wrow {
				if !cellsMatch(wcell, grow[ci]) {
					t.Errorf("table %q row %d col %q: %q, want %q",
						wt.Title, ri, wt.Columns[min(ci, len(wt.Columns)-1)], grow[ci], wcell)
				}
			}
		}
	}
}

// cellsMatch compares two cells, parsing decorated numerics ("+6.0%",
// "1.2x", "3.4e-02") when both sides parse; otherwise it requires exact
// string equality.
func cellsMatch(want, got string) bool {
	if want == got {
		return true
	}
	w, okW := parseCell(want)
	g, okG := parseCell(got)
	if !okW || !okG {
		return false
	}
	if w == g {
		return true
	}
	scale := math.Max(math.Abs(w), math.Abs(g))
	return math.Abs(w-g) <= goldenTolerance*scale
}

// parseCell extracts the numeric value from a table cell, stripping the
// report decorations ("+", "%", "x" suffix).
func parseCell(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "+")
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}
