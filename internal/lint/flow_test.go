package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureSpec names one fixture directory and the import path to load it
// under.
type fixtureSpec struct {
	dir        string
	importPath string
}

// loadFixtureProgram loads several fixture packages through one loader, in
// order, so later fixtures can import earlier ones by their fake paths. It
// returns the loaded packages (same order) plus a Program over everything
// the loader saw.
func loadFixtureProgram(t *testing.T, specs ...fixtureSpec) ([]*Package, *Program) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, s := range specs {
		pkg, err := l.LoadDir(filepath.Join("testdata", "src", s.dir), s.importPath)
		if err != nil {
			t.Fatalf("loading fixture %s as %s: %v", s.dir, s.importPath, err)
		}
		if pkg == nil {
			t.Fatalf("fixture %s has no Go files", s.dir)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, NewProgram(l.Packages(), Names())
}

// runProgramOn runs one analyzer over one target package with the given
// Program and renders the findings.
func runProgramOn(t *testing.T, prog *Program, target *Package, a *Analyzer) []string {
	t.Helper()
	fs, err := RunProgram(prog, []*Package{target}, []*Analyzer{a}, Names())
	if err != nil {
		t.Fatal(err)
	}
	return render(fs)
}

// dettaintFixtures loads the three-package dettaint fixture set: helpers
// under a non-deterministic path, a deterministic caller, and a driver that
// feeds values in.
func dettaintFixtures(t *testing.T) (dep, det, driver *Package, prog *Program) {
	t.Helper()
	pkgs, prog := loadFixtureProgram(t,
		fixtureSpec{"dettaintdep", "probqos/internal/clockutil/fixture"},
		fixtureSpec{"dettaint", "probqos/internal/sim/fixture"},
		fixtureSpec{"dettaintcall", "probqos/internal/qosd/fixture"},
	)
	return pkgs[0], pkgs[1], pkgs[2], prog
}

// TestDetTaintInterprocedural asserts the deterministic-side findings: a
// helper tainted two calls away from time.Now, an in-package map-order
// helper, and silence for the clean and sanctioned helpers.
func TestDetTaintInterprocedural(t *testing.T) {
	_, det, _, prog := dettaintFixtures(t)
	got := runProgramOn(t, prog, det, DetTaint)
	want := []string{
		"dettaint.go:12:19: [dettaint] fixture.Jitter -> fixture.wallSeconds -> time.Now is a nondeterministic source (time.Now) used in deterministic package probqos/internal/sim/fixture; derive the value from engine state, or annotate a reviewed boundary with //qoslint:allow dettaint <reason>",
		"dettaint.go:36:9: [dettaint] fixture.pick -> map iteration order is a nondeterministic source (map iteration order) used in deterministic package probqos/internal/sim/fixture; derive the value from engine state, or annotate a reviewed boundary with //qoslint:allow dettaint <reason>",
	}
	diffStrings(t, got, want)
}

// TestDetTaintFlowIntoDeterministic asserts the other direction: a
// non-deterministic driver handing live reads into deterministic code.
func TestDetTaintFlowIntoDeterministic(t *testing.T) {
	_, _, driver, prog := dettaintFixtures(t)
	got := runProgramOn(t, prog, driver, DetTaint)
	want := []string{
		"dettaintcall.go:15:30: [dettaint] time.Now flows into deterministic package probqos/internal/sim/fixture via the call to Width; nondeterministic inputs must be journaled state, not live reads — or annotate with //qoslint:allow dettaint <reason>",
		"dettaintcall.go:20:22: [dettaint] fixture.StepDelay -> fixture.Jitter -> fixture.wallSeconds -> time.Now flows into deterministic package probqos/internal/sim/fixture via the call to Width; nondeterministic inputs must be journaled state, not live reads — or annotate with //qoslint:allow dettaint <reason>",
	}
	diffStrings(t, got, want)
}

// TestDetTaintSilentInNonDeterministicPackage asserts that merely being
// tainted is legal outside the deterministic set: the helper package
// itself produces no findings.
func TestDetTaintSilentInNonDeterministicPackage(t *testing.T) {
	dep, _, _, prog := dettaintFixtures(t)
	if got := runProgramOn(t, prog, dep, DetTaint); len(got) != 0 {
		t.Errorf("dettaint fired in a non-deterministic package:\n  %s", strings.Join(got, "\n  "))
	}
}

func TestLockHeldFixture(t *testing.T) {
	pkg := loadFixture(t, "lockheld", "probqos/internal/fixture")
	got := runOn(t, pkg, LockHeld)
	want := []string{
		"lockheld.go:21:2: [lockheld] time.Sleep while c.mu is locked; a blocked holder stalls every other user of the lock — release first, or annotate with //qoslint:allow lockheld <reason>",
		"lockheld.go:30:7: [lockheld] channel send while c.mu is locked; a blocked holder stalls every other user of the lock — release first, or annotate with //qoslint:allow lockheld <reason>",
		"lockheld.go:37:3: [lockheld] c.mu can still be locked when this path returns (no Unlock and no deferred one); the next Lock deadlocks — unlock on every path, or annotate with //qoslint:allow lockheld <reason>",
		"lockheld.go:93:2: [lockheld] fsync (Sync on a writable handle) while s.rw is locked; a blocked holder stalls every other user of the lock — release first, or annotate with //qoslint:allow lockheld <reason>",
		"lockheld.go:101:13: [lockheld] channel receive while c.mu is locked; a blocked holder stalls every other user of the lock — release first, or annotate with //qoslint:allow lockheld <reason>",
		"lockheld.go:102:4: [lockheld] c.mu can still be locked when this path returns (no Unlock and no deferred one); the next Lock deadlocks — unlock on every path, or annotate with //qoslint:allow lockheld <reason>",
	}
	diffStrings(t, got, want)
}

func TestWalSwitchFixture(t *testing.T) {
	pkg := loadFixture(t, "walswitch", "probqos/internal/service/fixture")
	got := runOn(t, pkg, WalSwitch)
	want := []string{
		"walswitch.go:18:2: [walswitch] switch covers only 2 of 3 kinds declared at walswitch/walswitch.go:7 (missing opGamma); every journaled kind needs identical live and replay handling — add the cases, or annotate with //qoslint:allow walswitch <reason>",
		"walswitch.go:48:2: [walswitch] record kind evOrphan is switched on but never constructed; a kind nothing journals cannot appear in a WAL — wire up its producer or delete it",
	}
	diffStrings(t, got, want)
}

// TestWalSwitchRealReplaySwitchesExhaustive pins the actual crash-safety
// contract: the service's machine.apply currently handles every journaled
// kind, so walswitch is silent on the real packages.
// Together with TestWalSwitchCatchesDeletedReplayCase this is the
// acceptance guarantee that adding a WAL record kind without replay
// coverage fails lint.
func TestWalSwitchRealReplaySwitchesExhaustive(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var targets []*Package
	for _, ip := range []string{"probqos/internal/journal", "probqos/internal/service", "probqos/internal/sim"} {
		pkg, err := l.LoadDir(filepath.Join(root, strings.TrimPrefix(ip, "probqos/")), ip)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, pkg)
	}
	prog := NewProgram(l.Packages(), Names())
	fs, err := RunProgram(prog, targets, []*Analyzer{WalSwitch}, Names())
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("walswitch fired on the real replay switches:\n  %s", strings.Join(render(fs), "\n  "))
	}
}

// loadMutatedPackage copies a real package's sources into a temp dir with
// one textual edit applied, then loads it under its real import path so
// tests can assert an analyzer catches the regression.
func loadMutatedPackage(t *testing.T, relDir, importPath, file, old, new string) (*Package, *Program) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	srcDir := filepath.Join(root, relDir)
	tmp := t.TempDir()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	edited := false
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == file {
			if !bytes.Contains(data, []byte(old)) {
				t.Fatalf("%s no longer contains %q; update the mutation test", file, old)
			}
			data = bytes.Replace(data, []byte(old), []byte(new), 1)
			edited = true
		}
		if err := os.WriteFile(filepath.Join(tmp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !edited {
		t.Fatalf("file %s not found in %s", file, relDir)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(tmp, importPath)
	if err != nil {
		t.Fatalf("loading mutated %s: %v", importPath, err)
	}
	return pkg, NewProgram(l.Packages(), Names())
}

// TestWalSwitchCatchesDeletedReplayCase deletes one replay case from a
// real replay switch — the journal machine's Apply, and qosd's replay of
// its session-book kinds — (by making the case expression a non-constant
// so it no longer counts as coverage) and asserts walswitch reports
// exactly the missing kind.
func TestWalSwitchCatchesDeletedReplayCase(t *testing.T) {
	cases := []struct {
		name, relDir, importPath, file, old, missing string
	}{
		{"journal-apply", "internal/journal", "probqos/internal/journal",
			"journal.go", "case Fault:", `case Fault + "-disabled":`},
		{"service-apply", "internal/service", "probqos/internal/service",
			"durable.go", "case opDrain:", `case opDrain + "-disabled":`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg, prog := loadMutatedPackage(t, tc.relDir, tc.importPath, tc.file, tc.old, tc.missing)
			fs, err := RunProgram(prog, []*Package{pkg}, []*Analyzer{WalSwitch}, Names())
			if err != nil {
				t.Fatal(err)
			}
			if len(fs) != 1 {
				t.Fatalf("got %d findings, want exactly the deleted case:\n  %s",
					len(fs), strings.Join(render(fs), "\n  "))
			}
			wantKind := strings.TrimSuffix(strings.TrimPrefix(tc.old, "case "), ":")
			if !strings.Contains(fs[0].Message, "missing "+wantKind) {
				t.Errorf("finding does not name the deleted kind %s: %s", wantKind, fs[0].Message)
			}
		})
	}
}
