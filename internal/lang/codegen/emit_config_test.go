package codegen_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"graphit"
	"graphit/internal/core"
	"graphit/internal/lang/codegen"
)

// emittedSchedule evaluates the `sched := graphit.DefaultSchedule()....`
// chain of an emitted program by calling each setter, by name, on a real
// graphit.Schedule.
func emittedSchedule(t *testing.T, src string) graphit.Schedule {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var chain ast.Expr
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == "sched" {
				chain = as.Rhs[0]
			}
		}
		return chain == nil
	})
	if chain == nil {
		t.Fatalf("no schedule chain in:\n%s", src)
	}
	var eval func(ast.Expr) reflect.Value
	eval = func(x ast.Expr) reflect.Value {
		call := x.(*ast.CallExpr)
		sel := call.Fun.(*ast.SelectorExpr)
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "graphit" {
			if sel.Sel.Name != "DefaultSchedule" {
				t.Fatalf("chain starts at graphit.%s", sel.Sel.Name)
			}
			return reflect.ValueOf(graphit.DefaultSchedule())
		}
		m := eval(sel.X).MethodByName(sel.Sel.Name)
		if !m.IsValid() {
			t.Fatalf("graphit.Schedule has no method %s", sel.Sel.Name)
		}
		args := make([]reflect.Value, len(call.Args))
		for i, a := range call.Args {
			var v any
			switch a := a.(type) {
			case *ast.BasicLit:
				if a.Kind == token.STRING {
					v, err = strconv.Unquote(a.Value)
				} else {
					v, err = strconv.ParseInt(a.Value, 10, 64)
				}
				if err != nil {
					t.Fatal(err)
				}
			case *ast.Ident:
				v = a.Name == "true"
			default:
				t.Fatalf("%s: unexpected argument %T", sel.Sel.Name, a)
			}
			args[i] = reflect.ValueOf(v).Convert(m.Type().In(i))
		}
		return m.Call(args)[0]
	}
	return eval(chain).Interface().(graphit.Schedule)
}

// TestEmitGoRebuildsExecutedConfig: for schedules that set every field of
// the record, the chain EmitGo prints rebuilds exactly the core.Config that
// Execute hands the engine — the loop label's entry in Plan.Schedules.
func TestEmitGoRebuildsExecutedConfig(t *testing.T) {
	progs := []struct {
		file  string
		delta int64
	}{{"sssp.gt", 8}, {"kcore.gt", 1}} // kcore forbids coarsening
	emitted := 0
	for _, prog := range progs {
		src, err := os.ReadFile(filepath.Join("..", "..", "..", "testdata", "dsl", prog.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range core.StrategyNames() {
			for _, dir := range core.DirectionNames() {
				for _, extra := range []bool{false, true} {
					plan, err := codegen.Compile(string(src))
					if err != nil {
						t.Fatal(err)
					}
					cfg := plan.Schedules.Get(plan.Analysis.Loop.Label)
					cfg.Strategy, _ = core.ParseStrategy(st)
					cfg.Direction, _ = core.ParseDirection(dir)
					cfg.Delta, cfg.FusionThreshold, cfg.NumBuckets = prog.delta, 77, 33
					if extra {
						cfg.Grain, cfg.Workers = 64, 3
						cfg.RoundTimeout, cfg.StuckRounds = 250*time.Millisecond, 9
					}
					out, err := plan.EmitGo()
					if err != nil {
						continue // a strategy the program's analyses rule out
					}
					emitted++
					got, err := emittedSchedule(t, out).Config()
					if err != nil {
						t.Fatalf("%s %s %s: emitted chain is invalid: %v", prog.file, st, dir, err)
					}
					if got != *cfg {
						t.Errorf("%s %s %s extra=%v: emitted %+v, Execute runs %+v", prog.file, st, dir, extra, got, *cfg)
					}
				}
			}
		}
	}
	if emitted < 2*len(core.DirectionNames())*len(progs) {
		t.Fatalf("only %d schedules emitted", emitted)
	}
}
