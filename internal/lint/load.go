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
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/ml"). External test
	// packages carry the compiler's convention ("repro/internal/ml_test").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Files are the parsed sources to analyze, sorted by file name. For
	// test packages these are the _test.go files only, even though
	// in-package tests are type-checked together with the base sources.
	Files []*ast.File
	// IsTest marks in-package and external test packages.
	IsTest bool
	// Types and Info carry the (tolerant) type-check results; Info maps
	// are always non-nil, but entries may be missing for code that did
	// not type-check.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check diagnostics. Analysis proceeds
	// regardless: the analyzers degrade to syntactic matching where type
	// information is absent.
	TypeErrors []error
}

// Loader parses and type-checks module packages using only the standard
// library: module-internal imports are type-checked recursively from
// source, everything else (the standard library) is delegated to
// go/importer's source importer. A Loader is safe for concurrent use;
// each package is type-checked exactly once no matter how many
// goroutines request it.
type Loader struct {
	// Dir is the directory patterns are resolved against; the module
	// root is discovered from it. Defaults to the working directory.
	Dir string
	// Tests additionally loads each matched directory's test packages:
	// the in-package augmentation (foo + foo's _test.go files) and the
	// external test package (package foo_test). Directories holding only
	// test files — skipped entirely before — are matched too.
	Tests bool

	fset    *token.FileSet
	modPath string
	modRoot string

	initOnce sync.Once
	initErr  error

	std   types.Importer
	stdMu sync.Mutex // go/importer's source importer is not documented as concurrency-safe

	// entries caches package loads by import path. The first goroutine to
	// request a path installs an entry and loads; later ones wait on done.
	mu      sync.Mutex
	entries map[string]*loadEntry
	// checks counts types.Config.Check invocations per cache key, so
	// tests can assert shared dependencies are type-checked once. Base
	// packages are keyed by import path; test augmentations carry a
	// " [test]" or "_test" suffix.
	checks map[string]int
}

// loadEntry is one in-flight or completed package load.
type loadEntry struct {
	done chan struct{}
	pkg  *Package
	err  error
}

// moduleRoot walks upward from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
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
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// init prepares the loader on first use.
func (l *Loader) init() error {
	l.initOnce.Do(func() {
		dir := l.Dir
		if dir == "" {
			dir = "."
		}
		root, err := moduleRoot(dir)
		if err != nil {
			l.initErr = err
			return
		}
		mod, err := modulePath(filepath.Join(root, "go.mod"))
		if err != nil {
			l.initErr = err
			return
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			l.initErr = err
			return
		}
		l.Dir = abs
		l.modRoot = root
		l.modPath = mod
		l.fset = token.NewFileSet()
		l.std = importer.ForCompiler(l.fset, "source", nil)
		l.entries = make(map[string]*loadEntry)
		l.checks = make(map[string]int)
	})
	return l.initErr
}

// Fset exposes the loader's file set for rendering positions.
func (l *Loader) Fset() *token.FileSet { return l.fset }

func (l *Loader) countCheck(key string) {
	l.mu.Lock()
	l.checks[key]++
	l.mu.Unlock()
}

// Load resolves patterns ("./...", "./internal/ml", absolute or relative
// directories) into parsed, type-checked packages. Directories named
// "testdata" or starting with "." or "_" are skipped during "..."
// expansion but honored when named directly. With Tests set, each
// directory may yield up to three packages: the base package, the
// in-package test augmentation, and the external _test package.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	if err := l.init(); err != nil {
		return nil, err
	}
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	// Load root directories in parallel: the per-path cache guarantees
	// each package is still type-checked once, and shared dependencies
	// are awaited rather than redone.
	perDir := make([][]*Package, len(dirs))
	errs := make([]error, len(dirs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			base, err := l.loadDir(dir)
			if err != nil {
				errs[i] = err
				return
			}
			if base != nil && len(base.Files) > 0 {
				perDir[i] = append(perDir[i], base)
			}
			if l.Tests {
				tests, err := l.loadTestPackages(dir, base)
				if err != nil {
					errs[i] = err
					return
				}
				perDir[i] = append(perDir[i], tests...)
			}
		}(i, dir)
	}
	wg.Wait()
	var pkgs []*Package
	for i := range dirs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		pkgs = append(pkgs, perDir[i]...)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if pkgs[i].Path != pkgs[j].Path {
			return pkgs[i].Path < pkgs[j].Path
		}
		return !pkgs[i].IsTest && pkgs[j].IsTest
	})
	return pkgs, nil
}

// expand turns patterns into a sorted, de-duplicated list of absolute
// package directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = l.Dir
			}
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(l.Dir, pat)
		}
		info, err := os.Stat(pat)
		if err != nil {
			return nil, fmt.Errorf("lint: pattern %q: %w", pat, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q is not a directory", pat)
		}
		if !recursive {
			add(pat)
			continue
		}
		err = filepath.WalkDir(pat, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != pat && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			matches, _ := filepath.Glob(filepath.Join(p, "*.go"))
			for _, m := range matches {
				// A directory with only _test.go files is still a package
				// worth analyzing when tests are in scope (the repo root's
				// external benchmark package is exactly this shape).
				if l.Tests || !strings.HasSuffix(m, "_test.go") {
					add(p)
					break
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.modRoot)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir (Files is empty when
// the directory holds no non-test Go files).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.loadPath(path, dir, nil)
}

// loadPath is the cached, concurrency-safe package load; the importer
// below funnels module-internal imports through it so every package is
// type-checked exactly once per loader. chain carries the import path
// stack of the requesting type-check for cycle detection.
func (l *Loader) loadPath(path, dir string, chain []string) (*Package, error) {
	for _, p := range chain {
		if p == path {
			return nil, fmt.Errorf("lint: import cycle: %s -> %s", strings.Join(chain, " -> "), path)
		}
	}
	l.mu.Lock()
	if e, ok := l.entries[path]; ok {
		l.mu.Unlock()
		// Wait for a concurrent load of the same path. Valid Go import
		// graphs are DAGs, so waiting cannot deadlock across goroutines;
		// same-goroutine cycles were caught by the chain check above.
		<-e.done
		return e.pkg, e.err
	}
	e := &loadEntry{done: make(chan struct{})}
	l.entries[path] = e
	l.mu.Unlock()

	e.pkg, e.err = l.doLoad(path, dir, chain)
	close(e.done)
	return e.pkg, e.err
}

// doLoad performs the uncached parse + type-check for one package.
func (l *Loader) doLoad(path, dir string, chain []string) (*Package, error) {
	files, err := l.parseDir(dir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir, Files: files}
	if len(files) == 0 {
		return pkg, nil
	}
	pkg.Info = newInfo()
	conf := types.Config{
		Importer: &moduleImporter{l: l, chain: append(chain, path)},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Tolerant check: Check returns the (possibly incomplete) package
	// even on error; analyzers fall back to syntax where Info is sparse.
	l.countCheck(path)
	tpkg, _ := conf.Check(path, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}

// loadTestPackages loads the test packages for dir: the in-package
// augmentation (base sources + same-package _test.go files, with
// findings reported only for the test files) and the external
// package_test package. base may be nil or file-less for directories
// holding only tests.
func (l *Loader) loadTestPackages(dir string, base *Package) ([]*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	testFiles, err := l.parseDir(dir, func(name string) bool {
		return strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	if len(testFiles) == 0 {
		return nil, nil
	}
	var inPkg, extPkg []*ast.File
	for _, f := range testFiles {
		if strings.HasSuffix(f.Name.Name, "_test") {
			extPkg = append(extPkg, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}
	var out []*Package
	if len(inPkg) > 0 {
		// Type-check base and test sources together so test files see the
		// package's unexported declarations, but analyze only the tests —
		// the base package already had its own pass.
		all := inPkg
		if base != nil {
			all = append(append([]*ast.File{}, base.Files...), inPkg...)
		}
		pkg, err := l.checkFiles(path, path+" [test]", dir, all)
		if err != nil {
			return nil, err
		}
		pkg.Files = inPkg
		pkg.IsTest = true
		out = append(out, pkg)
	}
	if len(extPkg) > 0 {
		pkg, err := l.checkFiles(path+"_test", path+"_test", dir, extPkg)
		if err != nil {
			return nil, err
		}
		pkg.IsTest = true
		out = append(out, pkg)
	}
	return out, nil
}

// checkFiles type-checks an ad-hoc file list under the given import path
// (test packages are never imported, so they bypass the cache).
func (l *Loader) checkFiles(path, key, dir string, files []*ast.File) (*Package, error) {
	pkg := &Package{Path: path, Dir: dir, Files: files, Info: newInfo()}
	conf := types.Config{
		Importer: &moduleImporter{l: l, chain: []string{key}},
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	l.countCheck(key)
	tpkg, _ := conf.Check(path, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}

// parseDir parses the Go files in dir matching keep, sorted by name.
func (l *Loader) parseDir(dir string, keep func(name string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || !keep(name) {
			continue
		}
		// token.FileSet and the parser are safe for concurrent use with a
		// shared fset.
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// moduleImporter resolves module-internal import paths from source via
// the loader and delegates everything else to the standard library's
// source importer. chain records the import stack of the type-check it
// serves, for cycle reporting.
type moduleImporter struct {
	l     *Loader
	chain []string
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := m.l
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
		pkg, err := l.loadPath(path, dir, m.chain)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		return pkg.Types, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	//lint:ignore lock-order l.std is the stdlib source importer, never a moduleImporter; CHA over-approximates the interface call
	return l.std.Import(path)
}
