// Package codegen contains the back ends of the DSL compiler. A Plan is a
// checked, analyzed, scheduled program; Execute and EmitGo both lower it
// once under its current schedules (lower.go) and then either
//
//   - compile the IR into closures that run on the ordered runtime
//     (exec.go, internal/core) — the "compile and run" path used by
//     cmd/graphitc and the tests, or
//   - print it as a standalone Go main using the graphit public API
//     (goemit.go) — the Go analogue of the C++ code generation shown in
//     paper Figure 9.
package codegen

import (
	"fmt"

	"graphit/internal/core"
	"graphit/internal/graph"
	"graphit/internal/lang"
	"graphit/internal/lang/analysis"
	"graphit/internal/lang/sched"
)

// ExternFunc is a host-bound implementation of an `extern func`. Arguments
// and result are int64 (vertices, ints, bools-as-ints).
type ExternFunc func(args ...int64) int64

// Plan is a compiled program ready to execute.
type Plan struct {
	Checked   *lang.Checked
	Analysis  *analysis.Result
	Schedules sched.Schedules
}

// Compile parses, checks, analyzes, and schedule-resolves a program.
func Compile(src string) (*Plan, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileProgram(prog)
}

// CompileProgram is Compile over a parsed AST. Constant folding runs first
// so the analyses see literal facts (e.g. `0 - 1` qualifies as Figure 10's
// constant delta).
func CompileProgram(prog *lang.Program) (*Plan, error) {
	prog = lang.Fold(prog)
	chk, err := lang.Check(prog)
	if err != nil {
		return nil, err
	}
	res, err := analysis.Analyze(chk)
	if err != nil {
		return nil, err
	}
	schedules, err := sched.Resolve(prog.Schedule)
	if err != nil {
		return nil, err
	}
	return &Plan{Checked: chk, Analysis: res, Schedules: schedules}, nil
}

// ApplySchedule resolves additional scheduling text (e.g. from a separate
// schedule file or command-line), overriding the program's own schedule.
func (p *Plan) ApplySchedule(text string) error {
	calls, err := sched.ParseText(text)
	if err != nil {
		return err
	}
	extra, err := sched.Resolve(calls)
	if err != nil {
		return err
	}
	for label, s := range extra {
		p.Schedules[label] = s
	}
	return nil
}

// ExecOptions configure one plan execution.
type ExecOptions struct {
	// Graph overrides load(argv[1]); when nil the path argv[1] is loaded.
	Graph *graph.Graph
	// Argv is the program's argument vector; argv[0] is conventionally the
	// program name, matching the paper's examples (argv[1] = graph path,
	// argv[2] = start vertex, ...).
	Argv []string
	// Externs bind `extern func` declarations to Go implementations.
	Externs map[string]ExternFunc
}

// ExecResult is the outcome of a plan execution.
type ExecResult struct {
	// Vectors holds the final contents of every vector global.
	Vectors map[string][]int64
	// Stats are the ordered engine's counters.
	Stats core.Stats
	// Printed collects the output of print statements, one entry each.
	Printed []string
}

// Execute runs the plan to completion.
func (p *Plan) Execute(opt ExecOptions) (*ExecResult, error) {
	for _, d := range p.Checked.Prog.Decls {
		if fd, ok := d.(*lang.FuncDecl); ok && fd.Extern && opt.Externs[fd.Name] == nil {
			return nil, fmt.Errorf("codegen: extern func %q is not bound", fd.Name)
		}
	}
	ir, err := p.lower()
	if err != nil {
		return nil, err
	}
	g, err := p.graph(opt)
	if err != nil {
		return nil, err
	}
	return newMachine(ir, g, opt).run()
}

// graph returns opt.Graph, or loads argv[1] when it is nil. A program whose
// edgeset carries weights needs a graph that has them, as load(argv[1]) gives.
func (p *Plan) graph(opt ExecOptions) (*graph.Graph, error) {
	if opt.Graph != nil {
		if p.Checked.Weighted && !opt.Graph.Weighted() {
			return nil, fmt.Errorf("codegen: the program's edgeset is weighted but ExecOptions.Graph has no weights")
		}
		return opt.Graph, nil
	}
	if len(opt.Argv) < 2 {
		return nil, fmt.Errorf("codegen: no graph given and argv[1] missing")
	}
	return graph.LoadFile(opt.Argv[1], graph.BuildOptions{Weighted: p.Checked.Weighted, InEdges: true})
}
