package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoad is one Loader.Load whose packages several tests analyze.
// Type-checking from source (the standard library included) dominates
// this package's test time and Analyze never changes what it reads, so
// the corpus and the whole module are each loaded once per test binary.
type sharedLoad struct {
	once   sync.Once
	loader *Loader
	pkgs   []*Package
	err    error
}

func (s *sharedLoad) load(t testing.TB, dir, pattern string) (*Loader, []*Package) {
	t.Helper()
	s.once.Do(func() {
		s.loader = &Loader{Dir: dir, Tests: true}
		s.pkgs, s.err = s.loader.Load([]string{pattern})
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.loader, s.pkgs
}

var corpusLoad, moduleLoad sharedLoad

// loadCorpus returns the golden corpus, loaded once.
func loadCorpus(t testing.TB) (*Loader, []*Package) {
	t.Helper()
	return corpusLoad.load(t, ".", "./testdata/src/...")
}

// loadModule returns the whole module with its test packages, loaded
// once.
func loadModule(t testing.TB) (*Loader, []*Package) {
	t.Helper()
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return moduleLoad.load(t, root, "./...")
}

// want is one expectation parsed from a corpus `// want "regexp"`
// comment: the named line must produce a finding whose message matches.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantQuoted captures each quoted regexp after a `// want` marker.
var wantQuoted = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// collectWants scans every corpus .go file for want comments. Multiple
// quoted regexps on one line are multiple expectations for that line.
func collectWants(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, marker, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			for _, m := range wantQuoted.FindAllStringSubmatch(marker, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regexp %q: %v", path, line, m[1], err)
				}
				wants = append(wants, &want{file: path, line: line, re: re})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatalf("no want comments under %s", root)
	}
	return wants
}

// TestCorpusGolden runs the full suite over the known-bad corpus and
// requires an exact match between findings and want comments: every
// want must be hit, and every unsuppressed finding must be wanted.
func TestCorpusGolden(t *testing.T) {
	loader, pkgs := loadCorpus(t)
	res, err := Analyze(loader, pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, filepath.Join("testdata", "src"))

	var directiveFindings []Finding
	for _, f := range res.Unsuppressed() {
		if f.Check == "lint-directive" {
			// Malformed-directive findings land on comment lines, which
			// cannot carry a want comment of their own; asserted below.
			directiveFindings = append(directiveFindings, f)
			continue
		}
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == f.File && w.line == f.Line && w.re.MatchString(f.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f.String())
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}

	// The corpus contains exactly one malformed directive (directives.go),
	// which must be reported and must not suppress its neighbor.
	if len(directiveFindings) != 1 {
		t.Fatalf("lint-directive findings = %d, want 1: %v", len(directiveFindings), directiveFindings)
	}
	if d := directiveFindings[0]; !strings.HasSuffix(d.File, filepath.Join("directives", "directives.go")) {
		t.Fatalf("lint-directive finding in %s, want directives.go", d.File)
	}

	// Every corpus suppression must carry its reason through.
	suppressed := 0
	for _, f := range res.Findings {
		if f.Suppressed {
			suppressed++
			if f.SuppressReason == "" {
				t.Errorf("suppressed finding without a reason: %s", f.String())
			}
		}
	}
	if suppressed == 0 {
		t.Error("corpus exercised no suppressions")
	}
}

// TestCorpusPerCheck re-runs each analyzer alone over the corpus and
// requires it to produce at least one finding, so an analyzer that
// silently dies cannot hide behind the others. Each run is its own
// Analyze — its own Program, built only if this analyzer asks for one —
// so a check that silently leans on another's setup still fails here.
func TestCorpusPerCheck(t *testing.T) {
	loader, pkgs := loadCorpus(t)
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			res, err := Analyze(loader, pkgs, []*Analyzer{a})
			if err != nil {
				t.Fatal(err)
			}
			// Count only this analyzer's findings: the malformed-directive
			// finding fires on every run and would hide a dead analyzer.
			own := 0
			for _, f := range res.Findings {
				if f.Check == a.Name {
					own++
				}
			}
			if own == 0 {
				t.Fatalf("analyzer %s found nothing in the corpus", a.Name)
			}
		})
	}
}

// TestRepoTreeIsLintClean is the self-check gate: the real tree must
// have zero unsuppressed findings at any severity, i.e. `make lint`
// passes even with -fail-on info. Skipped in -short mode because it
// type-checks the whole module from source.
func TestRepoTreeIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is slow; run without -short")
	}
	loader, pkgs := loadModule(t)
	res, err := Analyze(loader, pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Gating(SeverityInfo) {
		t.Errorf("unsuppressed finding: %s", f.String())
	}
	if res.Packages < 20 {
		t.Errorf("analyzed %d packages, expected the whole module (>= 20)", res.Packages)
	}
}

// TestSelectAnalyzers covers the -checks flag plumbing.
func TestSelectAnalyzers(t *testing.T) {
	sel, err := SelectAnalyzers("lock-order,wall-clock")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "lock-order" || sel[1].Name != "wall-clock" {
		t.Fatalf("selected %v", sel)
	}
	if _, err := SelectAnalyzers("no-such-check"); err == nil {
		t.Fatal("unknown check name accepted")
	}
	if sel, err := SelectAnalyzers(""); err != nil || sel != nil {
		t.Fatalf("empty selection: %v %v", sel, err)
	}
}
