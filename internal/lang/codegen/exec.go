package codegen

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/core"
	"graphit/internal/graph"
	"graphit/internal/lang"
)

// The executor compiles the IR into Go closures over a slot-indexed int64
// frame. Each engine worker owns one frame (found by its Updater), calls
// push fixed-size windows on the frame's stack, and runtime errors unwind
// as execError panics to the boundary that reports them, so the per-edge
// path neither allocates nor switches on the IR.

type frame struct {
	q     *core.Updater // nil in main
	slots []int64       // the running function's window of stack
	stack []int64
	sp    int
	ret   int64
}

// maxStack bounds the frame stack (in slots) so unbounded DSL recursion
// fails with an error instead of exhausting the Go stack.
const maxStack = 1 << 16

func newFrame(q *core.Updater, size int) *frame {
	f := &frame{q: q, stack: make([]int64, size+16), sp: size}
	f.slots = f.stack[:size:size]
	return f
}

// push reserves a window of n slots above sp. Windows handed out before the
// stack grows keep the old array and stay valid.
func (f *frame) push(n int) []int64 {
	base, top := f.sp, f.sp+n
	if top > len(f.stack) {
		if top > maxStack {
			fail("call depth exceeded")
		}
		f.stack = append(f.stack[:len(f.stack):len(f.stack)], make([]int64, top)...)
	}
	f.sp = top
	return f.stack[base:top:top]
}

func (f *frame) queue() *core.Updater {
	if f.q == nil {
		fail("priority-queue operators are only valid inside edge functions")
	}
	return f.q
}

type execError struct{ err error }

func fail(format string, args ...any) {
	panic(execError{fmt.Errorf("codegen: "+format, args...)})
}

type (
	evalFn func(*frame) int64
	runFn  func(*frame) bool // reports whether a return statement ran
)

// machine is one execution of a lowered program on one graph.
type machine struct {
	ir      *irProgram
	g       *graph.Graph
	n       int // vertices
	argv    []string
	vecs    [][]int64
	exts    []ExternFunc
	funcs   map[*irFunc]*runFn
	printed []string
	// udfErr records the edge function's first runtime error: engine
	// workers cannot unwind, so later applications become no-ops and the
	// loop reports the error once the run drains.
	udfErr atomic.Pointer[error]
}

func newMachine(ir *irProgram, g *graph.Graph, opt ExecOptions) *machine {
	m := &machine{ir: ir, g: g, n: g.NumVertices(), argv: opt.Argv, funcs: map[*irFunc]*runFn{}}
	for range ir.vectors {
		m.vecs = append(m.vecs, make([]int64, m.n))
	}
	for _, x := range ir.externs {
		m.exts = append(m.exts, opt.Externs[x.name])
	}
	return m
}

func (m *machine) run() (res *ExecResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(execError)
			if !ok {
				panic(r)
			}
			err = e.err
		}
	}()
	main := newFrame(nil, len(m.ir.main.slots))
	m.block(m.ir.pre)(main)
	var st core.Stats
	if lp := m.ir.loop; lp != nil && lp.apply == nil {
		st = m.runExternLoop(lp)
	} else if lp != nil {
		if st, err = m.ordered(lp, main).Run(); err != nil {
			return nil, err
		}
		if e := m.udfErr.Load(); e != nil {
			return nil, *e
		}
	}
	m.block(m.ir.post)(main)
	vectors := make(map[string][]int64, len(m.vecs))
	for i, name := range m.ir.vectors {
		vectors[name] = m.vecs[i]
	}
	return &ExecResult{Vectors: vectors, Stats: st, Printed: m.printed}, nil
}

// ordered builds the core operator for the lowered loop — the runtime form
// of the compiler's while-loop replacement (paper §5.2).
func (m *machine) ordered(lp *irLoop, main *frame) *core.Ordered {
	prio := m.vecs[lp.prio]
	op := &core.Ordered{G: m.g, Prio: prio, Order: bucket.Increasing, FinalizeOnPop: lp.finalize,
		Cfg: lp.sched.Config(), Apply: m.edgeFunc(lp.apply)}
	if !lp.lowerFirst {
		op.Order = bucket.Decreasing
	}
	if lp.constSum != nil {
		op.SumConst, op.SumFloorIsCurrent = lp.constSum.Const, lp.constSum.ThresholdIsCurrentPriority
	}
	if lp.start != nil {
		op.Sources = []uint32{m.vertex(m.expr(lp.start)(main))}
	}
	if lp.stop != nil {
		tv, null := m.vertex(m.expr(lp.stop)(main)), lp.null.v
		op.Stop = func(cur int64) bool {
			best := atomicutil.Load(&prio[tv])
			return best != null && cur >= best
		}
	}
	return op
}

func (m *machine) vertex(v int64) uint32 {
	if uint64(v) >= uint64(m.n) {
		fail("vertex %d out of range [0,%d)", v, m.n)
	}
	return uint32(v)
}

// element bounds-checks a vector access.
func (m *machine) element(vec int, i int64) *int64 {
	if uint64(i) >= uint64(m.n) {
		fail("vector %s index %d out of range [0,%d)", m.ir.vectors[vec], i, m.n)
	}
	return &m.vecs[vec][i]
}

// edgeFunc compiles the loop's UDF into the engine's EdgeFunc.
func (m *machine) edgeFunc(fn *irFunc) core.EdgeFunc {
	body, weighted := m.body(fn), fn.params == 3
	frames := &framePool{size: len(fn.slots)}
	return func(src, dst graph.VertexID, w graph.Weight, q *core.Updater) {
		if m.udfErr.Load() != nil {
			return
		}
		f := frames.get(q)
		defer m.recoverUDF(f, fn.name)
		f.slots[0], f.slots[1] = int64(src), int64(dst)
		if weighted {
			f.slots[2] = int64(w)
		}
		(*body)(f)
	}
}

// recoverUDF records an edge function's runtime error and resets the
// worker's frame.
func (m *machine) recoverUDF(f *frame, name string) {
	if r := recover(); r != nil {
		e, ok := r.(execError)
		if !ok {
			panic(r)
		}
		err := fmt.Errorf("graphit UDF %s: %w", name, e.err)
		m.udfErr.CompareAndSwap(nil, &err)
		size := len(f.slots)
		f.slots, f.sp = f.stack[:size:size], size
	}
}

// framePool hands each engine worker its own frame, keyed by the worker's
// Updater. Lookups scan an immutable slice; a worker's first call adds its
// frame under the lock.
type framePool struct {
	size int
	mu   sync.Mutex
	tab  atomic.Pointer[[]*frame]
}

func (p *framePool) get(q *core.Updater) *frame {
	if t := p.tab.Load(); t != nil {
		for _, f := range *t {
			if f.q == q {
				return f
			}
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var t []*frame
	if old := p.tab.Load(); old != nil {
		t = *old
	}
	f := newFrame(q, p.size)
	t = append(t[:len(t):len(t)], f)
	p.tab.Store(&t)
	return f
}

// body compiles a function body once; recursive calls share the pointer.
func (m *machine) body(fn *irFunc) *runFn {
	if b := m.funcs[fn]; b != nil {
		return b
	}
	b := new(runFn)
	m.funcs[fn] = b
	*b = m.block(fn.body)
	return b
}

func (m *machine) block(ss []*node) runFn {
	fns := make([]runFn, len(ss))
	for i, s := range ss {
		fns[i] = m.stmt(s)
	}
	if len(fns) == 1 {
		return fns[0]
	}
	return func(f *frame) bool {
		for _, s := range fns {
			if s(f) {
				return true
			}
		}
		return false
	}
}

func (m *machine) stmt(s *node) runFn {
	var x evalFn
	if len(s.a) > 0 {
		x = m.expr(s.a[0])
	}
	switch s.op {
	case oSet:
		slot, apply := s.v, assignForms[accPlain][s.oper].apply
		return func(f *frame) bool { apply(&f.slots[slot], x(f)); return false }
	case oStore:
		vec, y, apply := int(s.v), m.expr(s.a[1]), assignForms[s.mode][s.oper].apply
		return func(f *frame) bool { p := m.element(vec, x(f)); apply(p, y(f)); return false }
	case oFill:
		vec, apply := m.vecs[s.v], assignForms[accPlain][s.oper].apply
		return func(f *frame) bool {
			v := x(f)
			for i := range vec {
				apply(&vec[i], v)
			}
			return false
		}
	case oDegrees:
		vec := m.vecs[s.v]
		return func(*frame) bool {
			for i := range vec {
				vec[i] = int64(m.g.OutDegree(uint32(i)))
			}
			return false
		}
	case oUpdate:
		y, floor, apply := m.expr(s.a[1]), x, updateForms[s.upd].apply
		if len(s.a) == 3 {
			floor = m.expr(s.a[2])
		}
		return func(f *frame) bool {
			q, v := f.queue(), m.vertex(x(f))
			d := y(f)
			apply(q, v, d, floor(f))
			return false
		}
	case oEval:
		return func(f *frame) bool { x(f); return false }
	case oIf:
		then, els := m.block(s.body), m.block(s.els)
		return func(f *frame) bool {
			if x(f) != 0 {
				return then(f)
			}
			return els(f)
		}
	case oWhile:
		body := m.block(s.body)
		return func(f *frame) bool {
			for x(f) != 0 {
				if body(f) {
					return true
				}
			}
			return false
		}
	case oReturn:
		if x == nil {
			return func(f *frame) bool { f.ret = 0; return true }
		}
		return func(f *frame) bool { f.ret = x(f); return true }
	case oPrint:
		isBool := s.a[0].k == kBool
		return func(f *frame) bool {
			if v := x(f); isBool {
				m.printed = append(m.printed, strconv.FormatBool(v != 0))
			} else {
				m.printed = append(m.printed, strconv.FormatInt(v, 10))
			}
			return false
		}
	}
	panic(fmt.Sprintf("codegen: IR statement op %d", s.op))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// arith holds the binary operators that evaluate both operands.
var arith = map[lang.Kind]func(a, b int64) int64{
	lang.Plus:  func(a, b int64) int64 { return a + b },
	lang.Minus: func(a, b int64) int64 { return a - b },
	lang.Star:  func(a, b int64) int64 { return a * b },
	lang.Slash: func(a, b int64) int64 {
		if b == 0 {
			fail("division by zero")
		}
		return a / b
	},
	lang.Eq:  func(a, b int64) int64 { return b2i(a == b) },
	lang.Neq: func(a, b int64) int64 { return b2i(a != b) },
	lang.Lt:  func(a, b int64) int64 { return b2i(a < b) },
	lang.Gt:  func(a, b int64) int64 { return b2i(a > b) },
	lang.Le:  func(a, b int64) int64 { return b2i(a <= b) },
	lang.Ge:  func(a, b int64) int64 { return b2i(a >= b) },
}

func (m *machine) expr(e *node) evalFn {
	args := make([]evalFn, len(e.a))
	for i, a := range e.a {
		args[i] = m.expr(a)
	}
	switch e.op {
	case oConst:
		v := e.v
		return func(*frame) int64 { return v }
	case oLocal:
		slot := e.v
		return func(f *frame) int64 { return f.slots[slot] }
	case oConv:
		return args[0]
	case oLoad:
		vec, idx := int(e.v), args[0]
		if e.mode == accAtomic {
			return func(f *frame) int64 { return atomicutil.Load(m.element(vec, idx(f))) }
		}
		return func(f *frame) int64 { return *m.element(vec, idx(f)) }
	case oBinary:
		x, y := args[0], args[1]
		switch e.oper {
		case lang.AndAnd:
			return func(f *frame) int64 { return b2i(x(f) != 0 && y(f) != 0) }
		case lang.OrOr:
			return func(f *frame) int64 { return b2i(x(f) != 0 || y(f) != 0) }
		}
		op := arith[e.oper]
		return func(f *frame) int64 { return op(x(f), y(f)) }
	case oCall:
		body, size := m.body(e.fn), len(e.fn.slots)
		return func(f *frame) int64 {
			base, saved := f.sp, f.slots
			win := f.push(size)
			for i, a := range args {
				win[i] = a(f)
			}
			f.slots, f.ret = win, 0
			(*body)(f)
			f.slots, f.sp = saved, base
			return f.ret
		}
	case oExtern:
		ext := m.exts[e.v]
		return func(f *frame) int64 {
			base := f.sp
			win := f.push(len(args))
			for i, a := range args {
				win[i] = a(f)
			}
			r := ext(win...)
			f.sp = base
			return r
		}
	case oArgv:
		idx := args[0]
		return func(f *frame) int64 {
			i := idx(f)
			if i < 0 || i >= int64(len(m.argv)) {
				fail("argv[%d] out of range (have %d args)", i, len(m.argv))
			}
			v, err := strconv.ParseInt(m.argv[i], 10, 64)
			if err != nil {
				fail("atoi(%q): %v", m.argv[i], err)
			}
			return v
		}
	case oCurPrio:
		return func(f *frame) int64 { return f.queue().GetCurrentPriority() }
	case oFinished:
		v := args[0]
		return func(f *frame) int64 { return b2i(f.queue().FinishedVertex(m.vertex(v(f)))) }
	}
	panic(fmt.Sprintf("codegen: IR expression op %d", e.op))
}
