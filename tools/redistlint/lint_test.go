package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureAnalyzers maps each testdata/src fixture package to the analyzer
// it exercises. The allowbad fixture is special-cased below: its findings
// come from directive parsing, not from any analyzer.
var fixtureAnalyzers = map[string]*analyzer{
	"determinism":      determinismAnalyzer,
	"safemath":         safemathAnalyzer,
	"hotpath":          hotpathAnalyzer,
	"hotpathinterproc": hotpathInterprocAnalyzer,
	"ctxpoll":          ctxpollAnalyzer,
	"errcheck":         errcheckAnalyzer,
	"lockorder":        lockorderAnalyzer,
	"goroleak":         goroleakAnalyzer,
	"wiretaint":        wiretaintAnalyzer,
	"atomicmix":        atomicmixAnalyzer,
}

// expectation is one parsed `// want "regexp"` comment: the fixture's
// analyzer must report a finding on that line whose message matches.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// wantRE matches a trailing expectation comment. The payload is a Go
// string literal (quoted or backquoted) holding a regular expression.
var wantRE = regexp.MustCompile("^// want (\".*\"|`.*`)$")

// collectWants extracts the expectation comments of a fixture package.
func collectWants(t *testing.T, p *lintPackage) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("%s: bad want payload %s: %v", p.Fset.Position(c.Pos()), m[1], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: want regexp %q: %v", p.Fset.Position(c.Pos()), pat, err)
				}
				pos := p.Fset.Position(c.Pos())
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out
}

// loadFixture type-checks one testdata/src fixture package. The test
// binary runs with the package directory as its working directory, so the
// relative pattern resolves inside the module even though testdata is
// excluded from ./... wildcards.
func loadFixture(t *testing.T, name string) *lintPackage {
	t.Helper()
	pkgs, err := load(".", []string{"./testdata/src/" + name})
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

// TestFixtures runs each analyzer over its fixture package and requires a
// one-to-one match between kept findings and `// want` expectations: every
// seeded violation fires, every corrected or allow-suppressed form stays
// silent.
func TestFixtures(t *testing.T) {
	for name, a := range fixtureAnalyzers {
		t.Run(name, func(t *testing.T) {
			p := loadFixture(t, name)
			kept, suppressed, malformed := runOn(a, p)
			for _, f := range malformed {
				t.Errorf("unexpected malformed directive: %s", f)
			}
			wants := collectWants(t, p)
			if len(wants) == 0 {
				t.Fatalf("fixture %s has no want comments", name)
			}
			for _, f := range kept {
				matched := false
				for _, w := range wants {
					if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
						w.hit = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
				}
			}
			// Every fixture carries exactly one justified allow comment;
			// its finding must land in suppressed, not kept or dropped.
			if len(suppressed) != 1 {
				t.Errorf("fixture %s: got %d suppressed findings, want exactly 1:", name, len(suppressed))
				for _, f := range suppressed {
					t.Errorf("  suppressed: %s", f)
				}
			}
		})
	}
}

// TestMalformedAllowDirectives checks that reason-less allow directives
// are reported as findings of the pseudo-analyzer "redistlint", so
// suppressions cannot silently rot.
func TestMalformedAllowDirectives(t *testing.T) {
	p := loadFixture(t, "allowbad")
	kept, suppressed, malformed := runOn(errcheckAnalyzer, p)
	if len(kept) != 0 || len(suppressed) != 0 {
		t.Errorf("allowbad: unexpected analyzer findings: kept=%v suppressed=%v", kept, suppressed)
	}
	wantLines := map[int]bool{6: false, 9: false}
	for _, f := range malformed {
		if f.Analyzer != "redistlint" {
			t.Errorf("malformed directive reported under analyzer %q, want \"redistlint\": %s", f.Analyzer, f)
		}
		if _, ok := wantLines[f.Pos.Line]; !ok {
			t.Errorf("unexpected malformed-directive finding: %s", f)
			continue
		}
		wantLines[f.Pos.Line] = true
	}
	for line, seen := range wantLines {
		if !seen {
			t.Errorf("allowbad:%d: expected a malformed-directive finding, got none", line)
		}
	}
}

// fixturePatterns lists every fixture package explicitly (testdata is
// excluded from ./... wildcards), for the whole-tree determinism and
// JSON-output tests below.
func fixturePatterns(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && e.Name() != "allowbad" {
			out = append(out, "./testdata/src/"+e.Name())
		}
	}
	return out
}

// TestDeterministicOutput runs the full analyzer suite twice over the
// whole fixture tree and requires byte-identical reports: finding order
// must be a pure function of the findings, never of map or package
// iteration order.
func TestDeterministicOutput(t *testing.T) {
	render := func() string {
		pkgs, err := load(".", fixturePatterns(t))
		if err != nil {
			t.Fatal(err)
		}
		kept, suppressed := lintAll(pkgs, nil)
		var sb strings.Builder
		for _, f := range kept {
			fmt.Fprintln(&sb, f)
		}
		for _, f := range suppressed {
			fmt.Fprintf(&sb, "suppressed: %s\n", f)
		}
		return sb.String()
	}
	first := render()
	second := render()
	if first != second {
		t.Errorf("two identical runs produced different output:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if first == "" {
		t.Fatal("fixture tree produced no findings; determinism test is vacuous")
	}
}

// TestLintRepoClean runs every analyzer over the real module and
// requires zero kept findings: the repo must satisfy its own invariants,
// with every deliberate exception carrying a reasoned allow directive.
func TestLintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := lintAll(pkgs, nil)
	for _, f := range kept {
		t.Errorf("repo not lint-clean: %s", f)
	}
}

// TestFuzzTargetsListed checks that the Makefile's FUZZ_TARGETS, which
// `make fuzz-smoke` runs and which claims to hold every fuzz target in the
// module, names exactly the module's func Fuzz* declarations, as
// package-dir:FuzzName pairs. Nested modules and testdata trees are not
// part of the module and are skipped.
func TestFuzzTargetsListed(t *testing.T) {
	const root = "../.."
	makefile, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(makefile), "\nFUZZ_TARGETS =")
	if !ok {
		t.Fatal("no FUZZ_TARGETS list in the Makefile")
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(list, "\n") {
		for _, field := range strings.Fields(strings.TrimSuffix(line, "\\")) {
			listed[field] = true
		}
		if !strings.HasSuffix(line, "\\") {
			break
		}
	}

	declared := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				declared[filepath.ToSlash(dir)+":"+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range sortedClassSet(declared) {
		if !listed[target] {
			t.Errorf("fuzz target %s is missing from the Makefile's FUZZ_TARGETS", target)
		}
	}
	for _, target := range sortedClassSet(listed) {
		if !declared[target] {
			t.Errorf("FUZZ_TARGETS names %s, which no test file declares", target)
		}
	}
}

// TestJSONOutput checks the -json report shape end to end: valid JSON,
// one object per finding with the fields CI annotation needs, and the
// same count as the text report.
func TestJSONOutput(t *testing.T) {
	args := append([]string{"-json", "-v"}, fixturePatterns(t)...)
	var buf bytes.Buffer
	err := run(args, &buf)
	var exit exitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("run -json: %v", err)
	}
	var got []jsonFinding
	if jsonErr := json.Unmarshal(buf.Bytes(), &got); jsonErr != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", jsonErr, buf.String())
	}
	if len(got) == 0 {
		t.Fatal("fixture tree produced no JSON findings")
	}
	kept := 0
	for _, f := range got {
		if f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete JSON finding: %+v", f)
		}
		if !f.Suppressed {
			kept++
		}
	}
	if int(exit) != kept {
		t.Errorf("exit error reports %d findings, JSON carries %d unsuppressed", int(exit), kept)
	}
}

// TestFixtureDirsWired fails when a fixture directory exists without a
// corresponding analyzer mapping, so new fixtures cannot be silently
// skipped.
func TestFixtureDirsWired(t *testing.T) {
	entries, err := os.ReadDir("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, ok := fixtureAnalyzers[e.Name()]; !ok && e.Name() != "allowbad" {
			t.Errorf("fixture dir testdata/src/%s has no analyzer mapping in fixtureAnalyzers", e.Name())
		}
	}
}
