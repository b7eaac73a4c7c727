package analysis

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The fixture harness mirrors golang.org/x/tools' analysistest on top of
// the package's loader: each testdata/src/<name> directory is
// a real, type-checking package seeded with violations, and every
// expected diagnostic is declared in the source as a trailing
//
//	// want `regexp`
//
// comment on the line the analyzer must flag (several backquoted or
// quoted patterns may follow one want). The test fails on any
// expectation the analyzer missed and on any diagnostic the fixture did
// not expect, so analyzer and fixtures pin each other down.

// wantPatternRe extracts the quoted patterns following the want keyword.
var wantPatternRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectation is one declared diagnostic: a pattern anchored to a line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// runFixture loads testdata/src/<name>, runs one analyzer over it, and
// diffs the findings against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("fixture %s must load and type-check: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded as %d packages", name, len(pkgs))
	}
	pkg := pkgs[0]

	wants := collectWants(t, pkg)
	findings := RunAnalyzers(pkgs, []*Analyzer{a})

	for _, f := range findings {
		if !matchWant(wants, f) {
			t.Errorf("unexpected diagnostic at %s: %s", f.Pos, f.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// collectWants parses every want comment in the fixture package.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				posn := pkg.Fset.Position(c.Pos())
				for _, m := range wantPatternRe.FindAllStringSubmatch(rest, -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", posn.Filename, posn.Line, pat, err)
					}
					wants = append(wants, &expectation{
						file: filepath.Base(posn.Filename),
						line: posn.Line,
						re:   re,
					})
				}
			}
		}
	}
	return wants
}

// matchWant consumes the first unmet expectation on the finding's line
// whose pattern matches its message.
func matchWant(wants []*expectation, f Finding) bool {
	file := filepath.Base(f.Pos.Filename)
	for _, w := range wants {
		if !w.met && w.file == file && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
			w.met = true
			return true
		}
	}
	return false
}

func TestBufPoolFixtures(t *testing.T)     { runFixture(t, BufPool, "bufpool") }
func TestLockGuardFixtures(t *testing.T)   { runFixture(t, LockGuard, "lockguard") }
func TestFrameBoundFixtures(t *testing.T)  { runFixture(t, FrameBound, "framebound") }
func TestMetricCheckFixtures(t *testing.T) { runFixture(t, MetricCheck, "metriccheck") }

// TestSuiteIsCleanOnRepo runs every analyzer over the root module and the
// benchmark module: the invariants gkfs-vet enforces must hold on the
// tree that ships it. It is the suite's CI gate, so it also proves it
// cannot pass vacuously: the analyzed set is checked against the go
// tool's own listing and file selection, and a go list error is a
// failure, not an empty clean result.
func TestSuiteIsCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every package of both modules")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := Load("../../bench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	pkgs = append(pkgs, bench...)
	t.Logf("analyzing %d packages", len(pkgs))

	list := exec.Command("go", "list", "./...")
	list.Dir = "../.."
	out, err := list.Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	analyzed := make(map[string]*Package)
	for _, pkg := range pkgs {
		analyzed[pkg.Path] = pkg
	}
	for _, path := range append(strings.Fields(string(out)), "repro/bench") {
		if analyzed[path] == nil {
			t.Errorf("%s was not analyzed", path)
		}
	}
	if tr := analyzed["repro/internal/transport"]; tr != nil && (runtime.GOOS == "linux" || runtime.GOOS == "darwin") {
		var files []string
		for _, f := range tr.Files {
			files = append(files, filepath.Base(tr.Fset.Position(f.Pos()).Filename))
		}
		if !slices.Contains(files, "shm.go") || slices.Contains(files, "shm_stub.go") {
			t.Errorf("repro/internal/transport checked with %v, want shm.go and not shm_stub.go on %s", files, runtime.GOOS)
		}
	}
	if _, err := Load("../..", "repro/internal/nosuchpackage"); err == nil {
		t.Error("loading a missing package reported no error")
	}

	for _, f := range RunAnalyzers(pkgs, All()) {
		t.Errorf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
	}
}
