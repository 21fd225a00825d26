package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// hotpathAnalyzer enforces PR 2's zero-steady-state-allocation contract on
// the functions that declare it. A function whose doc comment contains a
// line starting with //redistlint:hotpath (the residual-graph peel loop,
// the warm-started matcher entry points) claims to run allocation-free at
// steady state, a claim asserted dynamically by testing.AllocsPerRun in
// alloc_test.go. This analyzer makes the claim reviewable statically: the
// body may not contain
//
//   - make, new, slice/map composite literals, or &T{...} (heap work;
//     plain value literals like T{...} live on the stack and are exempt),
//   - function literals (closure environments escape and allocate),
//   - append (grows its backing array when capacity runs out),
//   - method calls on obs.Registry or obs.Observer (handle lookups take
//     a lock and a map read, and view construction allocates; hot code
//     must receive pre-resolved nil-safe handles — Counter/Gauge/Histogram,
//     a view like SolverObs, or a session's *ReqRec, whose methods no-op
//     when instrumentation is off — so observation never costs the
//     disabled path anything).
//
// Arena-refill appends that are amortized-zero (capacity is retained
// across runs and AllocsPerRun proves it) carry a
// //redistlint:allow hotpath comment citing that test.
var hotpathAnalyzer = &analyzer{
	name: "hotpath",
	doc:  "no append/make/new/closures/composite literals/obs lookups in //redistlint:hotpath functions",
	run:  runHotpath,
}

func runHotpath(p *lintPackage) []finding {
	var out []finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasHotpathMarker(fn.Doc) {
				continue
			}
			scanHotpathBody(p, fn.Body, func(n ast.Node, what string) {
				out = append(out, finding{
					Pos:      p.Fset.Position(n.Pos()),
					Analyzer: "hotpath",
					Message:  fmt.Sprintf("%s in hotpath-annotated function", what),
				})
			})
		}
	}
	return out
}

// scanHotpathBody walks one function body for the constructs the hotpath
// contract forbids and reports each via report. Shared by the hotpath
// analyzer (annotated functions) and hotpath-interproc (un-annotated
// functions reachable from annotated ones).
func scanHotpathBody(p *lintPackage, body *ast.BlockStmt, report func(n ast.Node, what string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "append", "make", "new":
						report(n, b.Name())
					}
				}
			}
			if se, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if name := obsLookupReceiver(p, se); name != "" {
					report(n, "obs."+name+" method call (lookup/allocation; pass pre-resolved nil-safe handles instead)")
				}
			}
		case *ast.UnaryExpr:
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && n.Op.String() == "&" {
				report(n, "&composite literal (escapes to heap)")
				return false
			}
		case *ast.FuncLit:
			report(n, "closure")
			return false // the literal itself is the finding
		case *ast.CompositeLit:
			if tv, ok := p.Info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n, "allocating composite literal")
				}
			}
		}
		return true
	})
}

// obsPkgPath is the observability package whose registry/observer entry
// points are barred from hot paths (their handle types are fine).
const obsPkgPath = "redistgo/internal/obs"

// obsLookupReceiver reports the receiver type name ("Registry" or
// "Observer") when se selects a method on one of the obs entry points,
// and "" otherwise. Handle and view types (Counter,
// Gauge, Histogram, SolverObs, ReqRec, …) are deliberately not matched:
// their methods are the sanctioned nil-safe no-op path.
func obsLookupReceiver(p *lintPackage, se *ast.SelectorExpr) string {
	sel, ok := p.Info.Selections[se]
	if !ok || sel.Kind() != types.MethodVal {
		return ""
	}
	t := sel.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != obsPkgPath {
		return ""
	}
	switch obj.Name() {
	case "Registry", "Observer":
		return obj.Name()
	}
	return ""
}

// hasHotpathMarker reports whether a doc comment carries the
// //redistlint:hotpath annotation.
func hasHotpathMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, hotpathMarker) {
			return true
		}
	}
	return false
}
