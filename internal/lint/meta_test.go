package lint

import (
	"strings"
	"testing"
)

// TestEveryAnalyzerHasFixtureCoverage pins the directive vocabulary to the
// fixture zoo: every name in Names() must name a fixture package on which
// the analyzer behind it produces at least one finding. For dettaint's
// aliases that analyzer is dettaint, and the finding must be of the
// alias's source kind. Registering a new analyzer or alias without seeding
// a fixture (or renaming one without updating its fixture entry) fails
// here, so the exact-position tables in lint_test.go and flow_test.go can
// never silently stop covering a name.
func TestEveryAnalyzerHasFixtureCoverage(t *testing.T) {
	// fixtures maps directive name → the fixture packages to load (in
	// dependency order), the index of the package findings must land in,
	// and, for an alias, the analyzer behind it plus a message fragment
	// naming its source kind.
	type fixture struct {
		specs  []fixtureSpec
		target int
		alias  *Analyzer
		kind   string
	}
	fixtures := map[string]fixture{
		"detwallclock": {[]fixtureSpec{{"detwallclock", "probqos/internal/sim/fixture"}}, 0, DetTaint, "reads the wall clock"},
		"detrand":      {[]fixtureSpec{{"detrand", "probqos/internal/sched/fixture"}}, 0, DetTaint, "process-global PRNG"},
		"floateq":      {specs: []fixtureSpec{{"floateq", "probqos/internal/fixture"}}},
		"syncerr":      {specs: []fixtureSpec{{"syncerr", "probqos/internal/durability/fixture"}}},
		"maprange":     {specs: []fixtureSpec{{"maprange", "probqos/internal/fixture"}}},
		"obsimport":    {specs: []fixtureSpec{{"obsimport", "probqos/internal/durability/fixture"}}},
		"dettaint": {specs: []fixtureSpec{
			{"dettaintdep", "probqos/internal/clockutil/fixture"},
			{"dettaint", "probqos/internal/sim/fixture"},
			{"dettaintcall", "probqos/internal/qosd/fixture"},
		}, target: 1},
		"lockheld":  {specs: []fixtureSpec{{"lockheld", "probqos/internal/fixture"}}},
		"walswitch": {specs: []fixtureSpec{{"walswitch", "probqos/internal/fixture"}}},
	}

	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	vocabulary := make(map[string]bool)
	for _, name := range Names() {
		vocabulary[name] = true
		if _, ok := fixtures[name]; !ok {
			t.Errorf("directive name %q has no fixture entry; seed one under testdata/src and add it here", name)
		}
	}
	for name := range fixtures {
		if !vocabulary[name] {
			t.Errorf("fixture entry %q names no analyzer or alias; was it renamed?", name)
		}
	}

	for name, fx := range fixtures {
		a := byName[name]
		if fx.alias != nil {
			a = fx.alias
		}
		if a == nil || !vocabulary[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			pkgs, prog := loadFixtureProgram(t, fx.specs...)
			fs, err := RunProgram(prog, []*Package{pkgs[fx.target]}, []*Analyzer{a}, Names())
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, f := range fs {
				if f.Analyzer == a.Name && strings.Contains(f.Message, fx.kind) {
					n++
				}
			}
			if n == 0 {
				t.Errorf("%q produced no findings on its fixture %s; the fixture no longer exercises it:\n  %s",
					name, fx.specs[fx.target].dir, strings.Join(render(fs), "\n  "))
			}
		})
	}
}
