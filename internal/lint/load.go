package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path ("probqos/internal/sim").
	Path string
	// Fset positions every file in the package (shared across the Loader).
	Fset *token.FileSet
	// Files holds the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
	// Src maps file names to raw source, used to classify trailing comments.
	Src map[string][]byte
}

// A Loader parses and type-checks module packages with no tooling outside
// the standard library. Imports within the module resolve recursively
// through the loader itself; imports outside the module (the standard
// library) resolve through go/importer's source importer, which type-checks
// GOROOT sources directly and therefore needs no pre-compiled artifacts.
type Loader struct {
	Fset    *token.FileSet
	ModPath string
	ModRoot string

	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader creates a loader for the module rooted at modRoot (a directory
// containing go.mod).
func NewLoader(modRoot string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModRoot: abs,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	src, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not support ImportFrom")
	}
	l.std = src
	return l, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// Load resolves the patterns to package directories and returns the loaded
// packages sorted by import path. Supported patterns are "./..." (the whole
// module), "dir/..." (a subtree), and plain directory paths, all relative to
// the current working directory. Directories named testdata or vendor,
// directories whose name starts with "." or "_", and nested modules (a
// directory below the walk root holding its own go.mod) are skipped, as
// "./..." does in the go command; so are _test.go files: qoslint checks
// shipped code, and tests legitimately use the wall clock.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		ip, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.LoadDir(dir, ip)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// expand maps patterns to a sorted, de-duplicated list of directories that
// contain at least one non-test Go file.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Clean(strings.TrimSuffix(rest, "/"))
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if path != root {
					if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
						return filepath.SkipDir // a nested module
					}
				}
				if ok, err := hasGoFiles(path); err != nil {
					return err
				} else if ok {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		ok, err := hasGoFiles(pat)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("lint: no non-test Go files in %s", pat)
		}
		add(filepath.Clean(pat))
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && includeFile(e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

func includeFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// dirFor inverts importPathFor for module-local import paths.
func (l *Loader) dirFor(importPath string) string {
	if importPath == l.ModPath {
		return l.ModRoot
	}
	rel := strings.TrimPrefix(importPath, l.ModPath+"/")
	return filepath.Join(l.ModRoot, filepath.FromSlash(rel))
}

// LoadDir parses and type-checks the package in dir under the given import
// path, memoized by import path. Tests use an explicit importPath to place
// fixture packages inside (or outside) the deterministic set. It returns
// (nil, nil) when the directory holds no non-test Go files.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	src := make(map[string][]byte)
	for _, e := range entries { // ReadDir sorts by name: parse order is stable
		if e.IsDir() || !includeFile(e.Name()) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.Fset, path, data, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		src[path] = data
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		Src:   src,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// Packages returns every module package this loader has loaded — the ones
// requested through Load plus every module dependency pulled in by type
// checking — sorted by import path. Drivers hand this to NewProgram so the
// interprocedural analyzers can see dependency function bodies.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, pkg := range l.pkgs {
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load through
// the loader, everything else through the standard library source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.LoadDir(l.dirFor(path), path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
