package codegen

import (
	"fmt"
	"go/token"
	"strings"

	"graphit/internal/core"
	"graphit/internal/lang"
)

// EmitGo renders the compiled program as a standalone Go main package using
// the graphit public API — the Go analogue of the C++ code generation in
// paper Figure 9. It prints the same lowered IR the executor runs, so the
// two cannot disagree. The emitted code differs by schedule exactly where
// the paper's does:
//
//   - SparsePush schedules compile the edge function's vector accesses to
//     atomic loads, stores, write-mins and fetch-adds (the compiler-inserted
//     synchronization of §5.1);
//   - DensePull schedules compile dst-indexed accesses to plain reads and a
//     compare-then-store without a CAS loop, since each destination is owned
//     by one worker (Figure 9(b)); every other access stays atomic;
//   - a UDF the min-plus analysis recognises is emitted as
//     Relax: graphit.MinPlus, with no Apply closure;
//   - the schedule chain itself (every field of the label's core.Config)
//     is materialized in the generated main.
//
// Extern functions are emitted as function variables the host must set.
func (p *Plan) EmitGo() (string, error) {
	loop := p.Analysis.Loop
	if loop == nil {
		return "", fmt.Errorf("codegen: program has no ordered loop to generate")
	}
	if loop.ExternDriven {
		return "", fmt.Errorf("codegen: Go emission for extern-driven loops is not supported; use the plan backend")
	}
	ir, err := p.lower()
	if err != nil {
		return "", err
	}
	e := &goEmitter{ir: ir}
	e.program(loop.Label)
	return e.b.String(), nil
}

type goEmitter struct {
	ir  *irProgram
	b   strings.Builder
	ind int
	fn  *irFunc // the function whose slots name the locals being printed
}

func (e *goEmitter) pf(format string, args ...any) {
	e.b.WriteString(strings.Repeat("\t", e.ind))
	fmt.Fprintf(&e.b, format, args...)
	e.b.WriteByte('\n')
}

var goType = [...]string{kInt: "int64", kBool: "bool", kVertex: "graphit.VertexID", kWeight: "graphit.Weight"}

// scaffold holds the names the emitted main declares or uses itself.
var scaffold = map[string]bool{"g": true, "n": true, "i": true, "q": true, "op": true, "sched": true,
	"stats": true, "err": true, "atoi": true, "main": true, "init": true, "fmt": true, "os": true,
	"strconv": true, "graphit": true, "int64": true, "bool": true, "true": true, "false": true, "nil": true}

// ident maps a DSL name to a Go identifier that cannot collide with a Go
// keyword or the emitted scaffolding.
func ident(name string) string {
	if scaffold[name] || token.IsKeyword(name) {
		return name + "_"
	}
	return name
}

func (e *goEmitter) program(label string) {
	ir, lp := e.ir, e.ir.loop
	s := lp.sched
	fmtImport := ""
	if ir.prints {
		fmtImport = "\t\"fmt\"\n"
	}
	fmt.Fprintf(&e.b, `// Code generated by graphitc. DO NOT EDIT.
// Source label %q compiled with schedule: %s
package main

import (
%s	"os"
	"strconv"

	"graphit"
)

func atoi(s string) int64 {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil { panic(err) }
	return v
}

`, label, s, fmtImport)
	for _, x := range ir.externs {
		e.pf("// %s is an extern function; the host must assign it before main runs.", x.name)
		e.pf("var %s %s\n", ident(x.name), signature("", x.params, x.ret))
	}
	e.pf("func main() {")
	e.ind++
	e.pf("g, err := graphit.LoadGraph(os.Args[1], graphit.BuildOptions{Weighted: %v, InEdges: true})", ir.weighted)
	e.pf("if err != nil { panic(err) }")
	e.pf("n := g.NumVertices()")
	for _, v := range ir.vectors {
		e.pf("%s := make([]int64, n)", ident(v))
	}
	// User functions are closures over the vectors; declaring them all
	// first lets them call each other in any order.
	for _, fn := range ir.funcs {
		e.pf("var %s %s", ident(fn.name), signature("q *graphit.Queue", fn.slots[:fn.params], fn.ret))
	}
	for _, fn := range ir.funcs {
		e.fn = fn
		e.pf("%s = %s {", ident(fn.name), signature("q *graphit.Queue", fn.slots[:fn.params], fn.ret))
		e.block(fn.body)
		if fn.ret != kVoid && !terminates(fn.body) {
			e.pf("\treturn %s", e.expr(constant(0, fn.ret, "")))
		}
		e.pf("}")
	}
	e.fn = ir.main
	e.stmts(ir.pre)

	// The ordered operator (the compiled while loop, paper §5.2).
	prio := ident(ir.vectors[lp.prio])
	e.pf("")
	e.pf("op := &graphit.Ordered{")
	e.ind++
	e.pf("G:    g,")
	e.pf("Prio: %s,", prio)
	if lp.lowerFirst {
		e.pf("Order: graphit.LowerFirst,")
	} else {
		e.pf("Order: graphit.HigherFirst,")
	}
	if lp.finalize {
		e.pf("// allow_priority_coarsening=false: dequeued vertices are final.")
		e.pf("FinalizeOnPop: true,")
	}
	if lp.constSum != nil {
		e.pf("// Constant-sum analysis (paper Figure 10) extracted:")
		e.pf("SumConst:          %d,", lp.constSum.Const)
		e.pf("SumFloorIsCurrent: %v,", lp.constSum.ThresholdIsCurrentPriority)
	}
	if lp.relax == core.MinPlus {
		e.pf("// Min-plus analysis: the edge function is %s[dst] = min(%s[dst], %s[src] + w),", prio, prio, prio)
		e.pf("// which the engine runs natively.")
		e.pf("Relax: graphit.MinPlus,")
	} else {
		if s.Direction == core.DensePull {
			e.pf("// DensePull: dst-indexed accesses are worker-owned; no CAS loops.")
		} else if lp.needsAtomics {
			e.pf("// Dependence analysis: concurrent destination writes -> atomics.")
		}
		e.fn = lp.apply
		w := "_"
		if lp.apply.params == 3 {
			w = e.local(2)
		}
		e.pf("Apply: func(%s, %s graphit.VertexID, %s graphit.Weight, q *graphit.Queue) {", e.local(0), e.local(1), w)
		e.block(lp.apply.body)
		e.pf("},")
		e.fn = ir.main
	}
	if lp.start != nil {
		e.pf("Sources: []graphit.VertexID{%s},", e.expr(lp.start))
	}
	if lp.stop != nil {
		e.pf("// Early termination: halt when the current priority reaches the")
		e.pf("// target's finalized value (pq.finishedVertex in the source).")
		e.pf("Stop: func(cur int64) bool {")
		e.pf("\tbest := graphit.AtomicLoad(&%s[%s])", prio, e.expr(lp.stop))
		e.pf("\treturn best != %s && cur >= best", lp.null.name)
		e.pf("},")
	}
	e.ind--
	e.pf("}")

	// Schedule chain (paper Figure 8 rendered as the fluent Go API).
	e.pf("sched := graphit.DefaultSchedule().")
	chain := scheduleChain(s)
	for i, c := range chain {
		if i < len(chain)-1 {
			c += "."
		}
		e.pf("\t%s", c)
	}
	e.pf("stats, err := graphit.RunOrdered(op, sched)")
	e.pf("if err != nil { panic(err) }")
	e.pf("_ = stats")
	e.stmts(ir.post)
	e.ind--
	e.pf("}")
}

// scheduleChain renders every field of cfg as the graphit.Schedule setter
// calls that rebuild it from DefaultSchedule. The result-shaping fields are
// always spelled out; the grain, workers and watchdogs only when set, since
// ConfigApplyParallelization rejects the default grain 0.
func scheduleChain(cfg *core.Config) []string {
	chain := []string{
		fmt.Sprintf("ConfigApplyPriorityUpdate(%q)", cfg.Strategy),
		fmt.Sprintf("ConfigApplyPriorityUpdateDelta(%d)", cfg.Delta),
		fmt.Sprintf("ConfigBucketFusionThreshold(%d)", cfg.FusionThreshold),
		fmt.Sprintf("ConfigNumBuckets(%d)", cfg.NumBuckets),
		fmt.Sprintf("ConfigApplyDirection(%q)", cfg.Direction),
	}
	if cfg.Grain != 0 {
		chain = append(chain, fmt.Sprintf("ConfigApplyParallelization(%d)", cfg.Grain))
	}
	if cfg.Workers != 0 {
		chain = append(chain, fmt.Sprintf("ConfigNumWorkers(%d)", cfg.Workers))
	}
	if cfg.RoundTimeout != 0 {
		chain = append(chain, fmt.Sprintf("ConfigRoundTimeout(%d)", int64(cfg.RoundTimeout)))
	}
	if cfg.StuckRounds != 0 {
		chain = append(chain, fmt.Sprintf("ConfigStuckRounds(%d)", cfg.StuckRounds))
	}
	return chain
}

// signature renders a Go func type; lead is an optional first parameter.
func signature(lead string, params []slotInfo, ret kind) string {
	var ps []string
	if lead != "" {
		ps = append(ps, lead)
	}
	for _, p := range params {
		ps = append(ps, ident(p.name)+" "+goType[p.k])
	}
	sig := "func(" + strings.Join(ps, ", ") + ")"
	if ret != kVoid {
		sig += " " + goType[ret]
	}
	return sig
}

// terminates reports whether Go sees the block as a terminating statement.
func terminates(ss []*node) bool {
	if len(ss) == 0 {
		return false
	}
	s := ss[len(ss)-1]
	return s.op == oReturn || s.op == oIf && s.els != nil && terminates(s.body) && terminates(s.els)
}

func (e *goEmitter) block(ss []*node) {
	e.ind++
	e.stmts(ss)
	e.ind--
}

func (e *goEmitter) stmts(ss []*node) {
	for _, s := range ss {
		e.stmt(s)
	}
}

func (e *goEmitter) local(slot int64) string { return ident(e.fn.slots[slot].name) }

func (e *goEmitter) stmt(s *node) {
	var x string
	if len(s.a) > 0 {
		x = e.expr(s.a[0])
	}
	switch s.op {
	case oSet:
		name, slot := e.local(s.v), e.fn.slots[s.v]
		switch {
		case s.decl:
			e.pf("var %s %s = %s", name, goType[slot.k], x)
			if !slot.read {
				e.pf("_ = %s", name)
			}
		default:
			e.pf("%s", store(accPlain, s.oper, name, x))
		}
	case oStore:
		e.pf("%s", store(s.mode, s.oper, fmt.Sprintf("%s[%s]", ident(e.ir.vectors[s.v]), x), e.expr(s.a[1])))
	case oFill:
		v := ident(e.ir.vectors[s.v])
		e.pf("for i := range %s { %s }", v, store(accPlain, s.oper, v+"[i]", x))
	case oDegrees:
		v := ident(e.ir.vectors[s.v])
		e.pf("for i := range %s { %s[i] = int64(g.OutDegree(graphit.VertexID(i))) }", v, v)
	case oUpdate:
		e.pf(updateForms[s.upd].goFmt, e.exprs(s.a)...)
	case oEval:
		if s.a[0].k == kVoid {
			e.pf("%s", x)
		} else {
			e.pf("_ = %s", x)
		}
	case oIf:
		e.pf("if %s {", x)
		e.block(s.body)
		if s.els != nil {
			e.pf("} else {")
			e.block(s.els)
		}
		e.pf("}")
	case oWhile:
		e.pf("for %s {", x)
		e.block(s.body)
		e.pf("}")
	case oReturn:
		e.pf("%s", strings.TrimSpace("return "+x))
	case oPrint:
		e.pf("fmt.Println(%s)", x)
	}
}

// store renders one assignment under its access mode.
func store(mode access, op lang.Kind, target, x string) string {
	return fmt.Sprintf(assignForms[mode][op].goFmt, target, x)
}

func (e *goEmitter) exprs(xs []*node) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = e.expr(x)
	}
	return out
}

func (e *goEmitter) expr(x *node) string {
	args := make([]string, len(x.a))
	for i, a := range x.a {
		args[i] = e.expr(a)
	}
	switch x.op {
	case oConst:
		switch {
		case x.name != "":
			return x.name
		case x.k == kBool:
			return fmt.Sprint(x.v != 0)
		}
		return fmt.Sprint(x.v)
	case oLocal:
		return e.local(x.v)
	case oConv:
		if x.k == kVertex {
			return "graphit.VertexID(" + args[0] + ")"
		}
		return "int64(" + args[0] + ")"
	case oLoad:
		ref := fmt.Sprintf("%s[%s]", ident(e.ir.vectors[x.v]), args[0])
		if x.mode == accAtomic {
			return "graphit.AtomicLoad(&" + ref + ")"
		}
		return ref
	case oBinary:
		return fmt.Sprintf("(%s %s %s)", args[0], x.oper, args[1])
	case oCall:
		q := "q"
		if e.fn == e.ir.main {
			q = "nil"
		}
		return ident(x.fn.name) + "(" + strings.Join(append([]string{q}, args...), ", ") + ")"
	case oExtern:
		return ident(e.ir.externs[x.v].name) + "(" + strings.Join(args, ", ") + ")"
	case oArgv:
		return "atoi(os.Args[" + args[0] + "])"
	case oCurPrio:
		return "q.GetCurrentPriority()"
	case oFinished:
		return "q.FinishedVertex(" + args[0] + ")"
	}
	panic(fmt.Sprintf("codegen: IR expression op %d", x.op))
}
