// Command redistlint is redistgo's invariant linter: a dependency-free
// static-analysis pass (stdlib go/parser + go/ast + go/types, packages
// loaded via `go list -export`) that makes the repo's scheduling
// guarantees durable as source-level rules instead of conventions.
//
//	go run ./tools/redistlint ./...          # lint the whole module
//	go run ./tools/redistlint -list          # describe the analyzers
//	go run ./tools/redistlint -v ./...       # also report suppressed findings
//
// Analyzers and their scopes:
//
//	determinism       solver, experiment, wire and traffic-generator
//	                  packages (tests included): no time.Now, no global
//	                  math/rand, no map iteration
//	safemath          internal/kpbs non-test code: int64 +, *, << must go
//	                  through internal/safemath
//	hotpath           any function annotated //redistlint:hotpath: no
//	                  append/make/new/closures/composite literals, and no
//	                  obs.Registry/obs.Observer method calls
//	hotpath-interproc the same contract propagated through the static call
//	                  graph: un-annotated functions reachable from a
//	                  hotpath function are held to the same rules
//	ctxpoll           internal/engine, internal/serve, cmd/ and tools/
//	                  non-test code: unbounded loops must observe a context
//	errcheck          all non-test code: no silently discarded errors
//	lockorder         serve/engine/cluster/tokenbucket/obs non-test code:
//	                  CFG-tracked mutex acquisition must be cycle-free and
//	                  never re-enter a held lock (directly or via a call)
//	goroleak          serve/engine/cluster non-test code: every go
//	                  statement needs a join path (WaitGroup, channel
//	                  send/close/receive, or context observation)
//	wiretaint         everything but internal/wire, non-test code: values
//	                  derived from wire frames must pass a wire decoder
//	                  before reaching bipartite/kpbs/engine entry points
//	atomicmix         all code (tests included): a field accessed through
//	                  sync/atomic may never be accessed non-atomically
//
// A finding is suppressed by a same-line or preceding-line comment
//
//	//redistlint:allow <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself a finding.
// The process exits 1 if any unsuppressed finding remains, so `make lint`
// (and `make check`, which includes it) fail closed. The -json flag
// switches the report to a machine-readable array of
// {file,line,col,analyzer,message} objects for CI annotation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// scope decides which packages and file kinds an analyzer covers.
type scope struct {
	pkgs         func(path string) bool // nil means every package
	includeTests bool
}

// deterministicPkgs are the packages whose outputs (schedules, figures,
// statistics, subtest names, fuzz corpora) must be byte-identical across
// runs.
var deterministicPkgs = map[string]bool{
	"redistgo/internal/kpbs":        true,
	"redistgo/internal/matching":    true,
	"redistgo/internal/engine":      true,
	"redistgo/internal/stats":       true,
	"redistgo/internal/experiments": true,
	"redistgo/internal/wire":        true,
	"redistgo/internal/trafficgen":  true,
}

// concurrencyPkgs are the packages whose goroutine and locking structure
// the concurrency analyzers police.
var concurrencyPkgs = map[string]bool{
	"redistgo/internal/serve":   true,
	"redistgo/internal/engine":  true,
	"redistgo/internal/cluster": true,
}

// analyzers wires every rule to its scope. Order is the reporting order
// for findings at identical positions.
var analyzers = []struct {
	*analyzer
	scope scope
}{
	{determinismAnalyzer, scope{pkgs: func(p string) bool { return deterministicPkgs[p] }, includeTests: true}},
	{safemathAnalyzer, scope{pkgs: func(p string) bool { return p == "redistgo/internal/kpbs" }}},
	{hotpathAnalyzer, scope{includeTests: true}},
	{hotpathInterprocAnalyzer, scope{}},
	{ctxpollAnalyzer, scope{pkgs: func(p string) bool {
		return p == "redistgo/internal/engine" || p == "redistgo/internal/serve" ||
			strings.HasPrefix(p, "redistgo/cmd/") || strings.HasPrefix(p, "redistgo/tools/")
	}}},
	{errcheckAnalyzer, scope{}},
	{lockorderAnalyzer, scope{pkgs: func(p string) bool {
		return concurrencyPkgs[p] || p == "redistgo/internal/tokenbucket" || p == "redistgo/internal/obs"
	}}},
	{goroleakAnalyzer, scope{pkgs: func(p string) bool { return concurrencyPkgs[p] }}},
	{wiretaintAnalyzer, scope{pkgs: func(p string) bool { return p != "redistgo/internal/wire" }}},
	{atomicmixAnalyzer, scope{includeTests: true}},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "redistlint:", err)
		os.Exit(1)
	}
}

type exitError int

func (e exitError) Error() string {
	return fmt.Sprintf("%d finding(s)", int(e))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("redistlint", flag.ContinueOnError)
	only := fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "describe the analyzers and exit")
	verbose := fs.Bool("v", false, "also report suppressed findings and their reasons")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array (suppressed ones included with -v)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-17s %s\n", a.name, a.doc)
		}
		return nil
	}
	enabled := make(map[string]bool)
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			known := false
			for _, a := range analyzers {
				known = known || a.name == name
			}
			if !known {
				return fmt.Errorf("unknown analyzer %q", name)
			}
			enabled[name] = true
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load(".", patterns)
	if err != nil {
		return err
	}

	kept, suppressed := lintAll(pkgs, enabled)
	if *asJSON {
		shown := suppressed
		if !*verbose {
			shown = nil
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(toJSONFindings(kept, shown)); err != nil {
			return err
		}
		if len(kept) > 0 {
			return exitError(len(kept))
		}
		return nil
	}
	for _, f := range kept {
		fmt.Fprintln(stdout, f)
	}
	if *verbose {
		for _, f := range suppressed {
			fmt.Fprintf(stdout, "suppressed: %s\n", f)
		}
	}
	if len(kept) > 0 {
		return exitError(len(kept))
	}
	if *verbose {
		fmt.Fprintf(stdout, "redistlint: clean (%d packages, %d suppressed findings)\n", len(pkgs), len(suppressed))
	}
	return nil
}

// lintAll runs every enabled analyzer over the loaded packages and
// returns the sorted kept and suppressed findings. Per-package analyzers
// run package by package; whole-program analyzers run once over the
// scope-filtered slice with the allow directives of every package merged
// (packages never share files, so directives cannot collide).
func lintAll(pkgs []*lintPackage, enabled map[string]bool) (kept, suppressed []finding) {
	allowsByPkg := make([]map[string][]*allowDirective, len(pkgs))
	merged := make(map[string][]*allowDirective)
	for i, p := range pkgs {
		allows, malformed := collectAllows(p)
		allowsByPkg[i] = allows
		kept = append(kept, malformed...)
		for file, ds := range allows {
			merged[file] = append(merged[file], ds...)
		}
	}
	for _, a := range analyzers {
		if len(enabled) > 0 && !enabled[a.name] {
			continue
		}
		if a.run != nil {
			for i, p := range pkgs {
				if a.scope.pkgs != nil && !a.scope.pkgs(p.Path) {
					continue
				}
				findings := a.run(p)
				if !a.scope.includeTests {
					findings = dropTestFileFindings(findings)
				}
				k, s := suppress(findings, allowsByPkg[i])
				kept = append(kept, k...)
				suppressed = append(suppressed, s...)
			}
			continue
		}
		var in []*lintPackage
		for _, p := range pkgs {
			if a.scope.pkgs == nil || a.scope.pkgs(p.Path) {
				in = append(in, p)
			}
		}
		if len(in) == 0 {
			continue
		}
		findings := a.runAll(in)
		if !a.scope.includeTests {
			findings = dropTestFileFindings(findings)
		}
		k, s := suppress(findings, merged)
		kept = append(kept, k...)
		suppressed = append(suppressed, s...)
	}
	sortFindings(kept)
	sortFindings(suppressed)
	return kept, suppressed
}

// dropTestFileFindings removes findings located in _test.go files, for
// analyzers scoped to production code.
func dropTestFileFindings(fs []finding) []finding {
	out := fs[:0]
	for _, f := range fs {
		if !strings.HasSuffix(f.Pos.Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}
