// Package lint is a small static-analysis framework built on the standard
// library's go/parser, go/ast, and go/types — no external dependencies, per
// the module's stdlib-only rule. It exists to machine-check the invariants
// the paper reproduction depends on: deterministic replay (no wall clock, no
// unseeded randomness in simulation code), exact golden output (no float
// equality, no map-order-dependent exposition), and durability (no silently
// dropped fsync errors).
//
// The cmd/qoslint driver loads the module's packages and runs the registered
// analyzer set (see analyzers.go); findings print as
//
//	file:line:col: [analyzer] message
//
// and any finding makes the driver exit non-zero. Intentional exceptions are
// annotated in source with an allow directive naming one analyzer (or one of
// dettaint's source-kind aliases, see Names) and a mandatory reason:
//
//	//qoslint:allow detwallclock profiling boundary, never feeds results
//
// A directive written on the same line as the finding suppresses that line;
// a directive on its own line suppresses the next non-directive line.
// Suppression is per-name: an allow for detwallclock silences a wall-clock
// read, but not a global-PRNG draw or a floateq finding on the same line.
// Directives with a missing analyzer name, a missing reason, or an unknown
// name are themselves reported (as analyzer "qoslint") and cannot be
// suppressed.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer checks one invariant across a package. Run inspects the
// package via the Pass and reports findings with Pass.Reportf; it returns an
// error only for internal failures (a finding is not an error).
type Analyzer struct {
	// Name identifies the analyzer in findings, allow directives, and the
	// driver's -enable/-disable flags. Lowercase, no spaces.
	Name string
	// Doc is a one-line description shown by `qoslint -list`.
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass) error
}

// A Pass carries one analyzer's view of one package. Prog gives the
// flow-aware analyzers the rest of the loaded module: dependency package
// syntax, the function index, and the cross-package fact store.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Prog     *Program

	report func(Finding)
}

// Reportf records a finding at pos. The framework drops the finding if an
// allow directive for this analyzer covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Finding is one reported invariant violation.
type Finding struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`

	// File, Line, and Col mirror Pos for JSON output.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// String renders the finding in the driver's file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// DirectivePrefix introduces an allow directive in a line comment.
const DirectivePrefix = "//qoslint:allow"

// frameworkAnalyzer attributes malformed-directive findings; it is not a
// runnable analyzer and cannot be suppressed.
const frameworkAnalyzer = "qoslint"

// Run executes the analyzers over the packages and returns every surviving
// finding sorted by file, line, column, then analyzer name. known lists all
// analyzer names valid in allow directives (normally the names of All());
// directives naming anything else are reported as malformed. The Program
// the passes see contains exactly pkgs; use RunProgram when dependency
// packages should be visible to the flow-aware analyzers.
func Run(pkgs []*Package, analyzers []*Analyzer, known []string) ([]Finding, error) {
	return RunProgram(NewProgram(pkgs, known), pkgs, analyzers, known)
}

// RunProgram is Run with an explicit Program: targets are the packages
// findings are reported for, while prog may additionally hold their module
// dependencies so interprocedural analyses can cross package boundaries.
func RunProgram(prog *Program, targets []*Package, analyzers []*Analyzer, known []string) ([]Finding, error) {
	knownSet := make(map[string]bool, len(known))
	for _, n := range known {
		knownSet[n] = true
	}
	var findings []Finding
	for _, pkg := range targets {
		allows, bad := parseDirectives(pkg, knownSet)
		findings = append(findings, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				Prog:     prog,
				report: func(f Finding) {
					if allows.covers(f.Analyzer, f.Pos.Filename, f.Pos.Line) {
						return
					}
					f.File, f.Line, f.Col = f.Pos.Filename, f.Pos.Line, f.Pos.Column
					findings = append(findings, f)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// allowSet maps file → line → analyzer names suppressed on that line.
type allowSet map[string]map[int]map[string]bool

func (s allowSet) add(file string, line int, analyzer string) {
	byLine := s[file]
	if byLine == nil {
		byLine = make(map[int]map[string]bool)
		s[file] = byLine
	}
	names := byLine[line]
	if names == nil {
		names = make(map[string]bool)
		byLine[line] = names
	}
	names[analyzer] = true
}

func (s allowSet) covers(analyzer, file string, line int) bool {
	if analyzer == frameworkAnalyzer {
		return false
	}
	return s[file][line][analyzer]
}

// parseDirectives scans every comment in the package for allow directives.
// It returns the resulting suppression set plus a finding for each malformed
// directive (missing analyzer, missing reason, unknown analyzer name).
func parseDirectives(pkg *Package, known map[string]bool) (allowSet, []Finding) {
	allows := make(allowSet)
	var bad []Finding
	malformed := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Finding{
			Analyzer: frameworkAnalyzer,
			Pos:      pos,
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, file := range pkg.Files {
		type directive struct {
			pos      token.Position
			analyzer string
			trailing bool
		}
		var ds []directive
		standalone := make(map[int]bool) // lines holding a whole-line directive
		for _, group := range file.Comments {
			for _, c := range group.List {
				text, ok := strings.CutPrefix(c.Text, DirectivePrefix)
				if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					malformed(pos, "%s directive is missing an analyzer name and reason", DirectivePrefix)
					continue
				}
				name := fields[0]
				if !known[name] {
					malformed(pos, "%s names unknown analyzer %q", DirectivePrefix, name)
					continue
				}
				if len(fields) < 2 {
					malformed(pos, "%s %s is missing a reason; state why the exception is sound", DirectivePrefix, name)
					continue
				}
				d := directive{pos: pos, analyzer: name, trailing: trailingComment(pkg, pos)}
				if !d.trailing {
					standalone[pos.Line] = true
				}
				ds = append(ds, d)
			}
		}
		for _, d := range ds {
			target := d.pos.Line
			if !d.trailing {
				// A whole-line directive covers the next line that is not
				// itself a directive, so directives stack.
				target++
				for standalone[target] {
					target++
				}
			}
			allows.add(d.pos.Filename, target, d.analyzer)
		}
	}
	return allows, bad
}

// trailingComment reports whether non-blank source text precedes pos on its
// line — i.e. the directive shares a line with code and covers that line
// rather than the next one.
func trailingComment(pkg *Package, pos token.Position) bool {
	src, ok := pkg.Src[pos.Filename]
	if !ok {
		return false
	}
	// Walk back from the comment's byte offset to the preceding newline.
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return false
		case ' ', '\t', '\r':
			continue
		default:
			return true
		}
	}
	return false
}

// forEachNode applies fn to every node in every file of the pass's package.
// Returning false from fn prunes that subtree.
func forEachNode(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
