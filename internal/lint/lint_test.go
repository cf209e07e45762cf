package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads one fixture package from testdata/src/<dir> under an
// explicit import path, so tests can place it inside or outside the
// deterministic and durability-critical sets.
func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	return pkg
}

// render formats findings the way the tests assert them: base file name,
// exact position, analyzer, exact message.
func render(fs []Finding) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = fmt.Sprintf("%s:%d:%d: [%s] %s", filepath.Base(f.File), f.Line, f.Col, f.Analyzer, f.Message)
	}
	return out
}

func runOn(t *testing.T, pkg *Package, analyzers ...*Analyzer) []string {
	t.Helper()
	fs, err := Run([]*Package{pkg}, analyzers, Names())
	if err != nil {
		t.Fatal(err)
	}
	return render(fs)
}

func diffStrings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("got %d findings, want %d\ngot:\n  %s", len(got), len(want), strings.Join(got, "\n  "))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestAnalyzerFixtures drives each analyzer over its seeded fixture and
// asserts the exact finding positions and messages. Every fixture also
// contains the corrected forms, so a silent pass on those is asserted by
// the same exact-match comparison.
func TestAnalyzerFixtures(t *testing.T) {
	cases := []struct {
		name       string
		dir        string
		importPath string
		analyzer   *Analyzer
		want       []string
	}{
		{
			name:       "detwallclock",
			dir:        "detwallclock",
			importPath: "probqos/internal/sim/fixture",
			analyzer:   DetTaint,
			want: []string{
				"detwallclock.go:13:10: [dettaint] time.Now reads the wall clock in deterministic package probqos/internal/sim/fixture; derive time from the engine clock, or annotate a profiling boundary with //qoslint:allow detwallclock <reason>",
				"detwallclock.go:14:7: [dettaint] time.Since reads the wall clock in deterministic package probqos/internal/sim/fixture; derive time from the engine clock, or annotate a profiling boundary with //qoslint:allow detwallclock <reason>",
				"detwallclock.go:15:7: [dettaint] time.NewTimer reads the wall clock in deterministic package probqos/internal/sim/fixture; derive time from the engine clock, or annotate a profiling boundary with //qoslint:allow detwallclock <reason>",
			},
		},
		{
			name:       "detrand",
			dir:        "detrand",
			importPath: "probqos/internal/sched/fixture",
			analyzer:   DetTaint,
			want: []string{
				"detrand.go:14:7: [dettaint] rand.Float64 uses the process-global PRNG in deterministic package probqos/internal/sched/fixture; draw from a seeded *stats.Source (or rand.New with an explicit seed) instead",
				"detrand.go:15:7: [dettaint] rand.Intn uses the process-global PRNG in deterministic package probqos/internal/sched/fixture; draw from a seeded *stats.Source (or rand.New with an explicit seed) instead",
				"detrand.go:16:2: [dettaint] rand.Shuffle uses the process-global PRNG in deterministic package probqos/internal/sched/fixture; draw from a seeded *stats.Source (or rand.New with an explicit seed) instead",
			},
		},
		{
			name:       "floateq",
			dir:        "floateq",
			importPath: "probqos/internal/fixture",
			analyzer:   FloatEq,
			want: []string{
				"floateq.go:10:7: [floateq] floating-point == comparison (a == b); use an epsilon or ordered comparison, or annotate an exact case with //qoslint:allow floateq <reason>",
				"floateq.go:13:7: [floateq] floating-point != comparison (f != g); use an epsilon or ordered comparison, or annotate an exact case with //qoslint:allow floateq <reason>",
				"floateq.go:16:11: [floateq] floating-point != comparison (a != 0); use an epsilon or ordered comparison, or annotate an exact case with //qoslint:allow floateq <reason>",
			},
		},
		{
			name:       "syncerr",
			dir:        "syncerr",
			importPath: "probqos/internal/durability/fixture",
			analyzer:   SyncErr,
			want: []string{
				"syncerr.go:14:2: [syncerr] error from f.Sync is discarded in durability-critical package probqos/internal/durability/fixture; a lost write error breaks the crash-safety guarantee — handle it, or annotate best-effort cleanup with //qoslint:allow syncerr <reason>",
				"syncerr.go:15:6: [syncerr] error from f.Close is discarded in durability-critical package probqos/internal/durability/fixture; a lost write error breaks the crash-safety guarantee — handle it, or annotate best-effort cleanup with //qoslint:allow syncerr <reason>",
				"syncerr.go:16:8: [syncerr] error from f.Sync is discarded in durability-critical package probqos/internal/durability/fixture; a lost write error breaks the crash-safety guarantee — handle it, or annotate best-effort cleanup with //qoslint:allow syncerr <reason>",
			},
		},
		{
			name:       "maprange",
			dir:        "maprange",
			importPath: "probqos/internal/fixture",
			analyzer:   MapRange,
			want: []string{
				"maprange.go:14:2: [maprange] map iteration order is nondeterministic but the loop body calls w.WriteString in iteration order; iterate sorted keys, or annotate with //qoslint:allow maprange <reason>",
				"maprange.go:17:2: [maprange] map iteration order is nondeterministic but the loop body calls fmt.Println in iteration order; iterate sorted keys, or annotate with //qoslint:allow maprange <reason>",
				"maprange.go:21:2: [maprange] map iteration order is nondeterministic but the loop body appends to out in iteration order (not sorted afterwards); iterate sorted keys, or annotate with //qoslint:allow maprange <reason>",
			},
		},
		{
			name:       "obsimport",
			dir:        "obsimport",
			importPath: "probqos/internal/durability/fixture",
			analyzer:   ObsImport,
			want: []string{
				`obsimport.go:7:2: [obsimport] deterministic package probqos/internal/durability/fixture imports observability package "probqos/internal/obs"; observability reads replayed state but must never feed it — wire the two together in the service layer instead`,
				`obsimport.go:8:2: [obsimport] deterministic package probqos/internal/durability/fixture imports observability package "probqos/internal/trace"; observability reads replayed state but must never feed it — wire the two together in the service layer instead`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir, tc.importPath)
			diffStrings(t, runOn(t, pkg, tc.analyzer), tc.want)
		})
	}
}

// TestScopedAnalyzersSilentOutsideScope reloads the deterministic and
// durability fixtures under out-of-scope import paths and asserts the
// analyzers stay silent: the wall-clock boundary in obs/service is legal by
// construction, not by annotation.
func TestScopedAnalyzersSilentOutsideScope(t *testing.T) {
	cases := []struct {
		dir        string
		importPath string
		analyzer   *Analyzer
	}{
		{"detwallclock", "probqos/internal/obs/fixture", DetTaint},
		{"detwallclock", "probqos/internal/trace/fixture", DetTaint},
		{"detrand", "probqos/internal/obs/fixture", DetTaint},
		{"syncerr", "probqos/internal/obs/fixture", SyncErr},
		{"syncerr", "probqos/cmd/fixture", SyncErr},
		{"obsimport", "probqos/internal/service/fixture", ObsImport},
	}
	for _, tc := range cases {
		t.Run(tc.dir+"/"+tc.importPath, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir, tc.importPath)
			if got := runOn(t, pkg, tc.analyzer); len(got) != 0 {
				t.Errorf("%s fired outside its scope:\n  %s", tc.analyzer.Name, strings.Join(got, "\n  "))
			}
		})
	}
}

// TestAllowDirectiveScoping asserts a directive suppresses findings only
// for the analyzer it names: the wrong-name and half-allowed wall-clock
// reads survive, while the stacked and trailing forms are fully silenced.
// dettaint's aliases are narrower still: on a line holding a wall-clock
// read and a global-PRNG draw, detwallclock leaves exactly the draw,
// detrand exactly the read, and dettaint neither; no alias silences a
// call-chain finding, and an annotated source does not taint its caller.
func TestAllowDirectiveScoping(t *testing.T) {
	pkg := loadFixture(t, "allow", "probqos/internal/sim/fixture")
	got := runOn(t, pkg, DetTaint, FloatEq)
	want := []string{
		// WrongName: detrand does not cover a wall-clock read.
		"allow.go:17:9: [dettaint] time.Now reads the wall clock in deterministic package probqos/internal/sim/fixture; derive time from the engine clock, or annotate a profiling boundary with //qoslint:allow detwallclock <reason>",
		// HalfAllowed: floateq does not cover it either.
		"allow.go:31:9: [dettaint] time.Since reads the wall clock in deterministic package probqos/internal/sim/fixture; derive time from the engine clock, or annotate a profiling boundary with //qoslint:allow detwallclock <reason>",
		// ClockAllowed: detwallclock leaves the draw.
		"allow.go:48:35: [dettaint] rand.Intn uses the process-global PRNG in deterministic package probqos/internal/sim/fixture; draw from a seeded *stats.Source (or rand.New with an explicit seed) instead",
		// RandAllowed: detrand leaves the read.
		"allow.go:54:9: [dettaint] time.Now reads the wall clock in deterministic package probqos/internal/sim/fixture; derive time from the engine clock, or annotate a profiling boundary with //qoslint:allow detwallclock <reason>",
		// ChainNotAllowed: detwallclock does not cover a call chain.
		"allow.go:65:9: [dettaint] fixture.ClockAllowed -> rand.Intn is a nondeterministic source (rand.Intn) used in deterministic package probqos/internal/sim/fixture; derive the value from engine state, or annotate a reviewed boundary with //qoslint:allow dettaint <reason>",
	}
	diffStrings(t, got, want)
}

// TestMalformedDirectives asserts the framework reports directives missing
// an analyzer name, missing a reason, or naming an unknown analyzer.
func TestMalformedDirectives(t *testing.T) {
	pkg := loadFixture(t, "directive", "probqos/internal/fixture")
	got := runOn(t, pkg, FloatEq)
	want := []string{
		"directive.go:5:1: [qoslint] //qoslint:allow directive is missing an analyzer name and reason",
		"directive.go:8:1: [qoslint] //qoslint:allow floateq is missing a reason; state why the exception is sound",
		"directive.go:11:1: [qoslint] //qoslint:allow names unknown analyzer \"nosuch\"",
	}
	diffStrings(t, got, want)
}

func TestIsObservabilityPkg(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"probqos/internal/obs", true},
		{"probqos/internal/trace", true},
		{"probqos/internal/trace/sub", true},
		{"probqos/internal/sim", false},
		{"probqos/internal/service", false},
		{"probqos/cmd/tracegen", false},
		{"probqos/trace", false}, // only internal/<name> is in the set
	}
	for _, tc := range cases {
		if got := IsObservabilityPkg(tc.path); got != tc.want {
			t.Errorf("IsObservabilityPkg(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

func TestIsDeterministicPkg(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"probqos/internal/sim", true},
		{"probqos/internal/sched", true},
		{"probqos/internal/predict", true},
		{"probqos/internal/checkpoint", true},
		{"probqos/internal/negotiate", true},
		{"probqos/internal/failure", true},
		{"probqos/internal/experiment", true},
		{"probqos/internal/durability", true},
		{"probqos/internal/durability/sub", true},
		{"probqos/internal/scenario", true},
		{"probqos/internal/obs", false},
		{"probqos/internal/service", false},
		{"probqos/internal/stats", false},
		{"probqos/cmd/qossim", false},
		{"probqos", false},
		{"internal/sim", true},
		{"probqos/sim", false}, // only internal/<name> is in the set
	}
	for _, tc := range cases {
		if got := IsDeterministicPkg(tc.path); got != tc.want {
			t.Errorf("IsDeterministicPkg(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestNamesMatchAll keeps the directive vocabulary in sync with the
// registry: every analyzer name in order, then dettaint's two aliases,
// which name no analyzer of their own.
func TestNamesMatchAll(t *testing.T) {
	names := Names()
	all := All()
	if len(names) != len(all)+2 {
		t.Fatalf("Names() has %d entries, want %d analyzers plus 2 aliases", len(names), len(all))
	}
	for i, a := range all {
		if names[i] != a.Name {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], a.Name)
		}
	}
	if aliases := names[len(all):]; aliases[0] != "detwallclock" || aliases[1] != "detrand" {
		t.Errorf("aliases = %v, want [detwallclock detrand]", aliases)
	}
	if len(all) != 7 {
		t.Errorf("registry has %d analyzers, want the 7 shipped ones", len(all))
	}
}

// TestLoadSkipsNestedModules checks that "dir/..." stops at a directory
// holding its own go.mod, as the go command does: a nested module (such as
// a benchmark harness with its own build tags) is not part of this one.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":            "module m\n\ngo 1.22\n",
		"a.go":              "package m\n\nfunc A() {}\n",
		"sub/b.go":          "package sub\n\nfunc B() {}\n",
		"nested/go.mod":     "module m/nested\n\ngo 1.22\n",
		"nested/broken.go":  "package nested\n\nfunc f() {}\n",
		"nested/broken2.go": "package nested\n\nfunc f() {}\n", // redeclared: loading it fails
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(filepath.Join(root, "..."))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if want := []string{"m", "m/sub"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("loaded %v, want %v", got, want)
	}
}
