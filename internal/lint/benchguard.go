package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// BenchGuard keeps the Go benchmarks' numbers honest: a Benchmark function
// (or a sub-benchmark literal passed to b.Run) that performs setup work
// before its timed b.N loop must neutralize that work with b.ResetTimer
// — or bracket it in b.StopTimer/b.StartTimer. Benchmarks using
// `for b.Loop()` are exempt (the loop method handles timing itself), and
// benchmark functions without a b.N loop are pure delegators and are
// skipped.
var BenchGuard = &analysis.Analyzer{
	Name: "benchguard",
	Doc: "require Benchmark functions that do setup before the timed b.N loop to call " +
		"b.ResetTimer (or stop the timer around the setup)",
	Run: runBenchGuard,
}

func runBenchGuard(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isBenchmarkDecl(pass, fd) {
				checkBenchBody(pass, funcName(fd), fd.Body)
			}
			// Sub-benchmarks: function literals passed to (*testing.B).Run.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) < 2 {
					return true
				}
				if name, isB := bMethod(pass, call); !isB || name != "Run" {
					return true
				}
				if lit, ok := ast.Unparen(call.Args[1]).(*ast.FuncLit); ok {
					checkBenchBody(pass, funcName(fd)+" sub-benchmark", lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

func isBenchmarkDecl(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Benchmark") {
		return false
	}
	params := fd.Type.Params.List
	if len(params) != 1 {
		return false
	}
	tv, ok := pass.Info.Types[params[0].Type]
	return ok && typeIs(tv.Type, "testing", "B")
}

// checkBenchBody walks the top-level statements of one benchmark body:
// it tracks setup calls against timer manipulation until the timed loop.
func checkBenchBody(pass *analysis.Pass, name string, body *ast.BlockStmt) {
	sawSetup := false
	timerStopped := false
	for _, stmt := range body.List {
		if loop, kind := timedLoop(pass, stmt); kind != loopNone {
			if kind == loopBN && sawSetup {
				pass.Reportf(loop.Pos(),
					"%s does setup before the timed b.N loop without b.ResetTimer (the timer is measuring the harness)", name)
			}
			return // statements after the first timed loop are teardown
		}
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				switch m, isB := bMethod(pass, call); {
				case isB && m == "ResetTimer":
					sawSetup = false
					continue
				case isB && m == "StopTimer":
					timerStopped = true
					continue
				case isB && m == "StartTimer":
					timerStopped = false
					continue
				}
			}
		}
		if !timerStopped && stmtDoesSetup(pass, stmt) {
			sawSetup = true
		}
	}
}

type loopKind int

const (
	loopNone loopKind = iota
	loopBN
	loopBLoop
)

// timedLoop classifies a statement as the benchmark's timed loop: a for
// or range statement driven by b.N, or a `for b.Loop()` loop.
func timedLoop(pass *analysis.Pass, stmt ast.Stmt) (ast.Stmt, loopKind) {
	switch l := stmt.(type) {
	case *ast.ForStmt:
		if cond, ok := ast.Unparen(l.Cond).(*ast.BinaryExpr); ok {
			if isBN(pass, cond.X) || isBN(pass, cond.Y) {
				return l, loopBN
			}
		}
		if call, ok := ast.Unparen(l.Cond).(*ast.CallExpr); ok {
			if m, isB := bMethod(pass, call); isB && m == "Loop" {
				return l, loopBLoop
			}
		}
	case *ast.RangeStmt:
		if isBN(pass, l.X) {
			return l, loopBN
		}
	}
	return nil, loopNone
}

// isBN reports whether e is the b.N field of a *testing.B value.
func isBN(pass *analysis.Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "N" {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	return ok && typeIs(tv.Type, "testing", "B")
}

// bMethod reports whether call invokes a method on a *testing.B receiver
// (including the promoted testing.common helpers) and returns its name.
func bMethod(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	s := pass.Info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal || !typeIs(s.Recv(), "testing", "B") {
		return "", false
	}
	return sel.Sel.Name, true
}

// stmtDoesSetup reports whether the statement contains a call that does
// real work: anything but builtins and *testing.B methods. Function
// literal bodies are skipped — defining a closure is free; calling it
// counts where the call happens.
func stmtDoesSetup(pass *analysis.Pass, stmt ast.Stmt) bool {
	setup := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if setup {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, isB := bMethod(pass, call); isB {
			return true
		}
		switch calleeObj(pass.Info, call).(type) {
		case *types.Builtin, *types.TypeName:
			return true // builtins and conversions are not setup work
		}
		setup = true
		return false
	})
	return setup
}
