// Package lint is SPATIAL's project-specific static-analysis suite. It
// enforces, at review time, the invariants the paper's evaluation depends
// on but neither the compiler, go vet, nor a test run checks: time read
// through the injectable clock, bounded metric-label cardinality in the
// telemetry plane, goroutine, lock and channel lifecycle hygiene under
// heavy concurrent traffic, and error-checking on the server tiers' I/O
// edges.
//
// The framework is built from scratch on the standard library's go/ast,
// go/parser, and go/types packages — the repository stays free of
// external dependencies. Analyzers implement the Analyzer interface and
// run over fully type-checked packages; findings can be suppressed inline
// with a justified directive:
//
//	//lint:ignore check-name reason for suppressing
//
// placed on the offending line or on the line directly above it. A
// directive without a reason is itself reported.
package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/constant"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// Severity is how sure a check is of its finding: an error finding is a
// defect, a warn finding has rare legitimate shapes. Both fail the build
// unless waived; SARIF reports them as error and warning.
type Severity string

const (
	SeverityError Severity = "error"
	SeverityWarn  Severity = "warn"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	// Check is the analyzer name, e.g. "lock-order".
	Check string `json:"check"`
	// Severity is the analyzer's severity ("error" or "warn").
	Severity Severity `json:"severity"`
	// File is the path of the offending file (module-root relative when
	// produced by the driver).
	File string `json:"file"`
	// Line and Col locate the finding (1-based).
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message explains the violation and how to fix it.
	Message string `json:"message"`
	// Suppressed marks findings matched by a lint:ignore directive;
	// SuppressReason carries the directive's justification.
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppressReason,omitempty"`
}

// String renders the canonical "file:line:col: severity [check] message"
// form (severity omitted when unset, for findings built outside a pass).
func (f Finding) String() string {
	if f.Severity == "" {
		return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
	}
	return fmt.Sprintf("%s:%d:%d: %s [%s] %s", f.File, f.Line, f.Col, f.Severity, f.Check, f.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name identifies the check in findings and ignore directives.
	Name string
	// Doc is a one-line description shown by `spatial-lint -list`.
	Doc string
	// Severity is the severity of this analyzer's findings;
	// SeverityError when empty.
	Severity Severity
	// AppliesTo reports whether the analyzer runs on the given import
	// path; nil means every package. The driver additionally runs every
	// analyzer on packages under the lint testdata corpus so golden
	// files exercise scoped checks.
	AppliesTo func(pkgPath string) bool
	// IncludeTests opts a per-package analyzer into test packages
	// (in-package _test.go files and external package foo_test files).
	// Resource-safety checks set it; style/scope checks whose failure modes
	// only matter in production code leave it false. Whole-program
	// analyzers (RunProgram) never see test packages and ignore it.
	IncludeTests bool
	// Run inspects the package and reports findings through the pass.
	// Nil for whole-program analyzers, which set RunProgram instead.
	Run func(*Pass)
	// RunProgram, when set, runs once over the whole-module Program
	// (the call graph) instead of per package. The driver maps its
	// findings back into the owning packages so suppression directives
	// apply uniformly.
	RunProgram func(*ProgramPass)
}

// EffectiveSeverity resolves the analyzer's severity, defaulting to
// error.
func (a *Analyzer) EffectiveSeverity() Severity {
	if a.Severity == "" {
		return SeverityError
	}
	return a.Severity
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package import path.
	Path string

	findings *[]Finding
}

// ProgramPass carries one whole-program analyzer's run.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	findings *[]Finding
}

// Reportf records a program-level finding at pos.
func (pp *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	position := pp.Prog.Fset.Position(pos)
	*pp.findings = append(*pp.findings, Finding{
		Check:    pp.Analyzer.Name,
		Severity: pp.Analyzer.EffectiveSeverity(),
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PassFor adapts the program pass to one package, so program analyzers
// can reuse the per-package helper surface (CFGs, expression printing).
func (pp *ProgramPass) PassFor(pkg *Package) *Pass {
	return &Pass{
		Analyzer: pp.Analyzer,
		Fset:     pp.Prog.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Path:     pkg.Path,
		findings: pp.findings,
	}
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Check:    p.Analyzer.Name,
		Severity: p.Analyzer.EffectiveSeverity(),
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// fileFor returns the syntax file containing pos.
func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// TypeOf returns the type of e, or nil when type information is
// unavailable (tolerant type-checking keeps analyzers running on
// partially broken code).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// ConstValue returns the constant value of e, or nil when e is not a
// compile-time constant.
func (p *Pass) ConstValue(e ast.Expr) constant.Value {
	if p.Info == nil {
		return nil
	}
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Value
	}
	return nil
}

// PkgFunc resolves a call to a package-level function and reports its
// package import path and function name (e.g. "time", "Now"). It prefers
// type information and falls back to matching the file's imports so the
// testdata corpus keeps working even when type-checking is incomplete.
func (p *Pass) PkgFunc(call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	ident, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	if p.Info != nil {
		if obj, found := p.Info.Uses[ident]; found {
			if pn, isPkg := obj.(*types.PkgName); isPkg {
				return pn.Imported().Path(), sel.Sel.Name, true
			}
			return "", "", false // a variable or type, not a package qualifier
		}
	}
	// Syntactic fallback: does any import of the enclosing file bind this
	// name?
	f := p.fileFor(call.Pos())
	if f == nil {
		return "", "", false
	}
	for _, imp := range f.Imports {
		ipath := strings.Trim(imp.Path.Value, `"`)
		local := ipath[strings.LastIndex(ipath, "/")+1:]
		if imp.Name != nil {
			local = imp.Name.Name
		}
		if local == ident.Name {
			return ipath, sel.Sel.Name, true
		}
	}
	return "", "", false
}

// MethodCall resolves a call to a method invocation, reporting the
// receiver type and the method name. ok is false for plain function
// calls and package-qualified calls.
func (p *Pass) MethodCall(call *ast.CallExpr) (recv types.Type, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	if p.Info != nil {
		if s, found := p.Info.Selections[sel]; found && s.Kind() == types.MethodVal {
			return s.Recv(), sel.Sel.Name, true
		}
	}
	return nil, "", false
}

// namedPath reports the package path and type name of t, unwrapping one
// pointer level. It returns "" paths for unnamed or builtin types.
func namedPath(t types.Type) (pkgPath, typeName string) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj() == nil {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// pathHasAny reports whether the import path contains one of the given
// segments, used by analyzers to scope themselves to subsystems.
func pathHasAny(path string, segments ...string) bool {
	for _, s := range segments {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

// ExprString renders an expression to canonical source text, used as a
// stable intraprocedural key (two syntactically identical receiver
// expressions in one function denote the same lock).
func (p *Pass) ExprString(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, p.Fset, e); err != nil {
		return fmt.Sprintf("%T@%d", e, e.Pos())
	}
	return buf.String()
}

// fnBody is one analyzable function: a declaration or a function
// literal. Flow-sensitive analyzers treat each independently; literal
// bodies are opaque statements in their enclosing function's CFG.
type fnBody struct {
	// Name is the declared name, or "func literal" for literals.
	Name string
	// Decl is non-nil for declared functions.
	Decl *ast.FuncDecl
	// Lit is non-nil for function literals.
	Lit *ast.FuncLit
	// Type is the signature syntax.
	Type *ast.FuncType
	// Body is the statement list analyzed.
	Body *ast.BlockStmt
}

// functionBodies collects every function declaration and function
// literal in the package, each as an independently analyzable unit.
func (p *Pass) functionBodies() []fnBody {
	var out []fnBody
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					out = append(out, fnBody{Name: n.Name.Name, Decl: n, Type: n.Type, Body: n.Body})
				}
			case *ast.FuncLit:
				out = append(out, fnBody{Name: "func literal", Lit: n, Type: n.Type, Body: n.Body})
			}
			return true
		})
	}
	return out
}

// inspectShallow walks n like ast.Inspect but does not descend into
// function literals, which are separate functions to the flow-sensitive
// analyzers. When n itself is a *ast.FuncLit it is skipped entirely.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		return fn(m)
	})
}

// releaseCaptured invokes release on every identifier referenced inside
// any function literal under n. Flow-sensitive resource analyzers use it
// to hand the tracked obligation to closures, which may run after the
// enclosing function returns.
func releaseCaptured(n ast.Node, release func(ast.Expr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		lit, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(k ast.Node) bool {
			if id, isIdent := k.(*ast.Ident); isIdent {
				release(id)
			}
			return true
		})
		return false
	})
}

// useVar resolves an identifier expression to the variable it names, or
// nil for non-identifiers and non-variables.
func (p *Pass) useVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok || p.Info == nil {
		return nil
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}
