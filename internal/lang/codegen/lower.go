package codegen

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"graphit/internal/atomicutil"
	"graphit/internal/core"
	"graphit/internal/lang"
	"graphit/internal/lang/analysis"
	"graphit/internal/lang/sched"
)

// The IR both back ends consume. Lowering makes every decision once — name
// resolution to frame slots, the int/vertex conversions, which vector
// accesses are atomic, the priority-queue operator forms, the special
// statements of main — so the executor compiles, and EmitGo prints, exactly
// what is here.

// kind is the value class of an expression. Booleans are 0/1 at run time;
// vertices and weights differ from ints only in the emitted Go types.
type kind uint8

const (
	kInt kind = iota
	kBool
	kVertex
	kWeight
	kVoid
)

var kindName = [...]string{"int", "bool", "vertex", "weight", "void"}

// access is how a vector element is read or written.
type access uint8

const (
	accPlain  access = iota // serial code in main
	accAtomic               // parallel: atomic load/store, write-min, fetch-add
	accOwned                // dst-indexed under DensePull: plain read, no CAS loop, atomic store
)

// assignForms is the one table of assignment semantics: for each access
// mode and operator, how the executor updates the int64 and the Go EmitGo
// prints for it (%[1]s is the target, %[2]s the value).
var assignForms = [...]map[lang.Kind]form[func(p *int64, v int64)]{
	accPlain: {
		lang.Assign:     {"%[1]s = %[2]s", func(p *int64, v int64) { *p = v }},
		lang.PlusAssign: {"%[1]s += %[2]s", func(p *int64, v int64) { *p += v }},
		lang.MinAssign:  {"if %[2]s < %[1]s { %[1]s = %[2]s }", func(p *int64, v int64) { *p = min(*p, v) }},
	},
	accAtomic: {
		lang.Assign:     {"graphit.AtomicStore(&%[1]s, %[2]s)", atomicutil.Store},
		lang.PlusAssign: {"graphit.AtomicAdd(&%[1]s, %[2]s)", func(p *int64, v int64) { atomic.AddInt64(p, v) }},
		lang.MinAssign:  {"graphit.WriteMin(&%[1]s, %[2]s)", func(p *int64, v int64) { atomicutil.WriteMin(p, v) }},
	},
	accOwned: {
		lang.Assign:     {"graphit.AtomicStore(&%[1]s, %[2]s)", atomicutil.Store},
		lang.PlusAssign: {"graphit.AtomicStore(&%[1]s, %[1]s+%[2]s)", func(p *int64, v int64) { atomicutil.Store(p, *p+v) }},
		lang.MinAssign: {"if %[2]s < %[1]s { graphit.AtomicStore(&%[1]s, %[2]s) }", func(p *int64, v int64) {
			if v < *p {
				atomicutil.Store(p, v)
			}
		}},
	},
}

// form pairs an operation's Go spelling with its executor implementation.
type form[F any] struct {
	goFmt string
	apply F
}

// updateForms are the Table 1 priority updates, for both back ends.
var updateForms = [...]form[func(q *core.Updater, v uint32, x, floor int64)]{
	analysis.UpdateMin: {"q.UpdatePriorityMin(%s, %s)", func(q *core.Updater, v uint32, x, _ int64) { q.UpdatePriorityMin(v, x) }},
	analysis.UpdateMax: {"q.UpdatePriorityMax(%s, %s)", func(q *core.Updater, v uint32, x, _ int64) { q.UpdatePriorityMax(v, x) }},
	analysis.UpdateSum: {"q.UpdatePrioritySum(%s, %s, %s)", func(q *core.Updater, v uint32, x, floor int64) { q.UpdatePrioritySum(v, x, floor) }},
}

// op is the form of an IR node.
type op uint8

const (
	oConst    op = iota // v; name is the Go spelling of a named constant
	oLocal              // slot v
	oConv               // a[0] as kind k
	oLoad               // vector v at index a[0], read under mode
	oBinary             // a[0] oper a[1]
	oCall               // user function fn(a...)
	oExtern             // extern v(a...)
	oArgv               // atoi(argv[a[0]])
	oCurPrio            // pq.getCurrentPriority()
	oFinished           // pq.finishedVertex(a[0])

	oSet     // slot v oper a[0] (Assign, PlusAssign, MinAssign); decl declares it
	oStore   // vector v at a[0] oper a[1], written under mode
	oFill    // every element of vector v oper a[0]
	oDegrees // vector v = out-degrees
	oUpdate  // pq.updatePriority<upd>(a[0], a[1][, floor a[2]])
	oEval    // a[0] for its effect
	oIf      // if a[0] body else els
	oWhile   // while a[0] body
	oReturn  // return [a[0]]
	oPrint   // print a[0]
)

// node is one IR expression or statement; fields its op does not use are
// zero.
type node struct {
	op        op
	k         kind // an expression's value kind
	v         int64
	oper      lang.Kind
	name      string
	mode      access
	upd       analysis.UpdateKind
	decl      bool
	fn        *irFunc
	a         []*node
	body, els []*node
}

func constant(v int64, k kind, name string) *node { return &node{op: oConst, v: v, k: k, name: name} }

func nodes(a ...*node) []*node { return a }

type slotInfo struct {
	name string
	k    kind
	read bool
}

// irFunc is main, the edge function or a user function. Parameters take the
// first slots.
type irFunc struct {
	name   string
	params int
	slots  []slotInfo
	body   []*node
	ret    kind
}

type irExtern struct {
	name   string
	params []slotInfo
	ret    kind
}

// irLoop is the ordered while loop after the paper's §5.2 replacement.
type irLoop struct {
	sched             *sched.LabelSchedule
	prio              int
	lowerFirst        bool
	finalize          bool // allow_priority_coarsening=false: dequeued vertices are final
	constSum          *analysis.ConstantSumInfo
	needsAtomics      bool
	apply             *irFunc // nil for extern-driven loops
	phases            []int   // extern-driven loops: the extern each phase applies
	reduce            []bool  // ... and whether the phase is applyExternReduce
	start, stop, null *node   // start and stop are main locals or constants, or nil
}

type irProgram struct {
	vectors   []string
	externs   []irExtern
	funcs     []*irFunc // user functions reachable from main or the edge function
	main      *irFunc   // one frame for pre, the loop's operands and post
	pre, post []*node
	loop      *irLoop
	weighted  bool
	prints    bool
}

type lowerError struct{ err error }

type lowerer struct {
	chk    *lang.Checked
	ir     *irProgram
	vecIdx map[string]int
	extIdx map[string]int
	funcs  map[string]*irFunc
	built  bool // the priority queue is constructed at main's top level

	// Per-function state, saved around nested lowering.
	fn     *irFunc
	scopes []map[string]int
	out    *[]*node
	pos    lang.Pos
	inMain bool
	edge   bool                      // lowering the loop's edge function
	dst    string                    // its dst parameter under DensePull
	onDst  map[*lang.AssignStmt]bool // its dst-indexed writes under DensePull
}

// lower turns the checked, analyzed program under its current schedules
// into the IR. It runs at Execute/EmitGo time because ApplySchedule and
// Autotune change schedules after Compile.
func (p *Plan) lower() (ir *irProgram, err error) {
	defer func() {
		if r := recover(); r != nil {
			le, ok := r.(lowerError)
			if !ok {
				panic(r)
			}
			err = le.err
		}
	}()
	chk := p.Checked
	l := &lowerer{chk: chk, vecIdx: map[string]int{}, extIdx: map[string]int{}, funcs: map[string]*irFunc{},
		ir: &irProgram{weighted: chk.Weighted, main: &irFunc{name: "main", ret: kVoid}}}
	var inits []*lang.ConstDecl
	for _, d := range chk.Prog.Decls {
		switch d := d.(type) {
		case *lang.ConstDecl:
			if t := chk.Globals[d.Name].Type; t.Kind == "vector" {
				if t.Value.Kind != "int" {
					l.errf(d.Pos, "vector %s: only int vectors are supported", d.Name)
				}
				l.ir.vectors = append(l.ir.vectors, d.Name)
				if d.Init != nil {
					inits = append(inits, d)
				}
			}
		case *lang.FuncDecl:
			if d.Extern {
				l.ir.externs = append(l.ir.externs, irExtern{name: d.Name, params: l.params(d), ret: l.retKind(d)})
			}
		}
	}
	sort.Strings(l.ir.vectors)
	sort.Slice(l.ir.externs, func(i, j int) bool { return l.ir.externs[i].name < l.ir.externs[j].name })
	sort.Slice(inits, func(i, j int) bool { return inits[i].Name < inits[j].Name })
	for i, v := range l.ir.vectors {
		l.vecIdx[v] = i
	}
	for i, e := range l.ir.externs {
		l.extIdx[e.name] = i
	}

	l.fn, l.inMain, l.out, l.scopes = l.ir.main, true, &l.ir.pre, []map[string]int{{}}
	for _, d := range inits {
		l.pos = d.Pos
		l.emit(&node{op: oFill, v: int64(l.vecIdx[d.Name]), oper: lang.Assign, a: nodes(l.hoist(l.as(kInt, l.expr(d.Init))))})
	}
	for _, s := range p.Analysis.Pre {
		if a, ok := s.(*lang.AssignStmt); ok && l.isPQ(a.LHS) {
			l.built = true
		}
		l.stmt(s)
	}
	if p.Analysis.Loop != nil {
		l.ir.loop = l.loop(p)
	}
	l.out = &l.ir.post
	for _, s := range p.Analysis.Post {
		l.stmt(s)
	}
	return l.ir, nil
}

func (l *lowerer) errf(pos lang.Pos, format string, args ...any) {
	panic(lowerError{fmt.Errorf("codegen: %s: %s", pos, fmt.Sprintf(format, args...))})
}

func (l *lowerer) loop(p *Plan) *irLoop {
	li, pq := p.Analysis.Loop, l.chk.PQ
	l.pos = li.While.Pos
	if pq == nil || !l.built {
		l.errf(l.pos, "ordered loop reached before the priority queue was constructed")
	}
	s := p.Schedules.Get(li.Label)
	lp := &irLoop{sched: s, prio: l.vecIdx[pq.PriorityVector], lowerFirst: pq.LowerFirst, finalize: !pq.AllowCoarsening,
		null: constant(core.Unreached, kInt, "graphit.Unreached")}
	if !pq.LowerFirst {
		lp.null = constant(core.NullMax, kInt, "graphit.NullMax")
	}
	if li.ExternDriven {
		if pq.AllowCoarsening {
			l.errf(l.pos, "extern-driven loops do not support priority coarsening")
		}
		for _, st := range li.While.Body[1:] {
			if ls, ok := st.(*lang.LabeledStmt); ok {
				st = ls.S
			}
			if es, ok := st.(*lang.ExprStmt); ok {
				mc := es.E.(*lang.MethodCallExpr)
				ext, ok := l.extIdx[mc.Args[0].(*lang.IdentExpr).Name]
				if !ok {
					l.errf(mc.Pos, "%s needs an extern function, %s is not one", mc.Method, mc.Args[0])
				}
				lp.phases, lp.reduce = append(lp.phases, ext), append(lp.reduce, mc.Method == "applyExternReduce")
			}
		}
		return lp
	}
	if !pq.AllowCoarsening && s.Delta > 1 {
		l.errf(l.pos, "schedule sets ∆=%d but the priority queue disallows coarsening", s.Delta)
	}
	info := p.Analysis.UDFs[li.UDFName]
	if s.Strategy == core.LazyConstantSum {
		if info.ConstantSum == nil {
			l.errf(l.pos, "schedule requests lazy_constant_sum but %s does not qualify (needs a single constant updatePrioritySum)", li.UDFName)
		}
		lp.constSum = info.ConstantSum
	}
	lp.needsAtomics = info.NeedsAtomics
	if pq.StartExpr != nil {
		lp.start = l.hoist(l.as(kVertex, l.expr(pq.StartExpr)))
	}
	if li.StopVertex != nil {
		lp.stop = l.hoist(l.index(li.StopVertex))
	}
	lp.apply = &irFunc{name: info.Func.Name, ret: kVoid}
	params := []slotInfo{{name: info.SrcName, k: kVertex}, {name: info.DstName, k: kVertex}}
	if info.WeightName != "" {
		params = append(params, slotInfo{name: info.WeightName, k: kWeight})
	}
	l.function(lp.apply, params, info.Func.Body, func() {
		l.edge = true
		if s.Direction == core.DensePull {
			l.dst, l.onDst = info.DstName, map[*lang.AssignStmt]bool{}
			for _, w := range info.Writes {
				l.onDst[w.Stmt] = w.OnDst
			}
		}
	})
	return lp
}

// function lowers body into fn with fresh per-function state and restores
// the caller's afterwards.
func (l *lowerer) function(fn *irFunc, params []slotInfo, body []lang.Stmt, setup func()) {
	saved := *l
	l.fn, l.inMain, l.edge, l.dst, l.onDst, l.scopes = fn, false, false, "", nil, []map[string]int{{}}
	if setup != nil {
		setup()
	}
	for _, p := range params {
		l.declare(p.name, p.k)
	}
	fn.params = len(params)
	fn.body = l.block(body)
	saved.built = l.built
	*l = saved
}

// userFunc lowers a called user function once; a recursive call sees the
// registered function before its body is complete.
func (l *lowerer) userFunc(fd *lang.FuncDecl) *irFunc {
	if fn := l.funcs[fd.Name]; fn != nil {
		return fn
	}
	fn := &irFunc{name: fd.Name, ret: l.retKind(fd)}
	l.funcs[fd.Name] = fn
	l.ir.funcs = append(l.ir.funcs, fn)
	l.function(fn, l.params(fd), fd.Body, nil)
	return fn
}

func (l *lowerer) params(fd *lang.FuncDecl) []slotInfo {
	out := make([]slotInfo, len(fd.Params))
	for i, p := range fd.Params {
		out[i] = slotInfo{name: p.Name, k: l.typeKind(p.Type)}
	}
	return out
}

func (l *lowerer) retKind(fd *lang.FuncDecl) kind {
	if fd.Ret == nil {
		return kVoid
	}
	return l.typeKind(fd.Ret)
}

func (l *lowerer) typeKind(t *lang.TypeExpr) kind {
	switch {
	case t.Kind == "int":
		return kInt
	case t.Kind == "bool":
		return kBool
	case l.chk.Elements[t.Kind]:
		return kVertex
	}
	l.errf(t.Pos, "values of type %s are not supported by the back ends", t)
	return 0
}

func (l *lowerer) declare(name string, k kind) int {
	l.fn.slots = append(l.fn.slots, slotInfo{name: name, k: k})
	l.scopes[len(l.scopes)-1][name] = len(l.fn.slots) - 1
	return len(l.fn.slots) - 1
}

func (l *lowerer) lookup(name string) (int, bool) {
	for i := len(l.scopes) - 1; i >= 0; i-- {
		if s, ok := l.scopes[i][name]; ok {
			return s, true
		}
	}
	return 0, false
}

func (l *lowerer) emit(n *node) { *l.out = append(*l.out, n) }

// block lowers statements in a new scope.
func (l *lowerer) block(ss []lang.Stmt) []*node {
	var out []*node
	saved := l.out
	l.out, l.scopes = &out, append(l.scopes, map[string]int{})
	for _, s := range ss {
		l.stmt(s)
	}
	l.out, l.scopes = saved, l.scopes[:len(l.scopes)-1]
	return out
}

// hoist binds a non-trivial expression to a fresh local, so a back end that
// mentions the value twice (Go's `if v < x { x = v }`) evaluates it once.
func (l *lowerer) hoist(x *node) *node {
	y := x
	if y.op == oConv {
		y = y.a[0]
	}
	if y.op == oConst || y.op == oLocal {
		return x
	}
	slot := len(l.fn.slots)
	l.fn.slots = append(l.fn.slots, slotInfo{name: fmt.Sprintf("tmp%d_", slot), k: x.k, read: true})
	l.emit(&node{op: oSet, v: int64(slot), oper: lang.Assign, a: nodes(x), decl: true})
	return &node{op: oLocal, k: x.k, v: int64(slot)}
}

// as converts x to kind k. Ints, vertices and weights interconvert; bools
// and void values convert to nothing.
func (l *lowerer) as(k kind, x *node) *node {
	switch {
	case x.k == k:
		return x
	case x.k == kVoid || x.k == kBool || k == kBool || k == kVoid:
		l.errf(l.pos, "cannot use a %s value as %s", kindName[x.k], kindName[k])
	case x.op == oConv:
		return l.as(k, x.a[0])
	}
	return &node{op: oConv, k: k, a: nodes(x)}
}

// index lowers a vector index or vertex operand: an int or a vertex.
func (l *lowerer) index(e lang.Expr) *node {
	x := l.expr(e)
	if x.k == kVertex {
		return x
	}
	return l.as(kInt, x)
}

func (l *lowerer) stmt(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.VarDeclStmt:
		l.pos = s.Pos
		k := l.typeKind(s.Type)
		x := constant(0, k, "")
		if s.Init != nil {
			x = l.as(k, l.expr(s.Init))
		}
		l.emit(&node{op: oSet, v: int64(l.declare(s.Name, k)), oper: lang.Assign, a: nodes(x), decl: true})
	case *lang.AssignStmt:
		l.pos = s.Pos
		l.assign(s)
	case *lang.ExprStmt:
		l.pos = s.Pos
		if mc, ok := s.E.(*lang.MethodCallExpr); ok && l.isPQ(mc.Recv) && strings.HasPrefix(mc.Method, "updatePriority") {
			l.update(mc)
		} else {
			l.emit(&node{op: oEval, a: nodes(l.expr(s.E))})
		}
	case *lang.IfStmt:
		l.pos = s.Pos
		n := &node{op: oIf, a: nodes(l.as(kBool, l.expr(s.Cond))), body: l.block(s.Then)}
		if s.Else != nil {
			n.els = l.block(s.Else)
		}
		l.emit(n)
	case *lang.WhileStmt:
		l.pos = s.Pos
		l.emit(&node{op: oWhile, a: nodes(l.as(kBool, l.expr(s.Cond))), body: l.block(s.Body)})
	case *lang.ReturnStmt:
		l.pos = s.Pos
		if l.inMain {
			l.errf(s.Pos, "return in main is not supported")
		}
		n := &node{op: oReturn}
		if s.E != nil {
			n.a = nodes(l.as(l.fn.ret, l.expr(s.E)))
		}
		l.emit(n)
	case *lang.PrintStmt:
		l.pos = s.Pos
		x := l.expr(s.E)
		if !l.inMain || x.k == kVoid {
			l.errf(s.Pos, "print takes a value and is only supported in main")
		}
		l.ir.prints = true
		l.emit(&node{op: oPrint, a: nodes(x)})
	case *lang.LabeledStmt:
		l.stmt(s.S)
	case *lang.DeleteStmt:
	default:
		l.errf(l.pos, "unsupported statement %T", s)
	}
}

func (l *lowerer) assign(s *lang.AssignStmt) {
	switch lhs := s.LHS.(type) {
	case *lang.IdentExpr:
		if slot, ok := l.lookup(lhs.Name); ok {
			x := l.as(l.fn.slots[slot].k, l.expr(s.RHS))
			if s.Op == lang.MinAssign {
				x = l.hoist(x)
			}
			l.emit(&node{op: oSet, v: int64(slot), oper: s.Op, a: nodes(x)})
			return
		}
		if l.isPQ(lhs) {
			return // the construction is lowered into the ordered loop
		}
		vec, ok := l.vecIdx[lhs.Name]
		if !ok || !l.inMain {
			l.errf(s.Pos, "cannot assign to %q here: only locals, vector elements, and whole vectors in main", lhs.Name)
		}
		if mc, ok := s.RHS.(*lang.MethodCallExpr); ok && mc.Method == "getOutDegrees" {
			l.emit(&node{op: oDegrees, v: int64(vec)})
		} else {
			l.emit(&node{op: oFill, v: int64(vec), oper: s.Op, a: nodes(l.hoist(l.as(kInt, l.expr(s.RHS))))})
		}
	case *lang.IndexExpr:
		vec, mode := l.vector(lhs.X), l.mode(l.onDst[s])
		idx, x := l.index(lhs.Index), l.as(kInt, l.expr(s.RHS))
		if s.Op == lang.MinAssign && mode != accAtomic {
			idx, x = l.hoist(idx), l.hoist(x)
		}
		l.emit(&node{op: oStore, v: int64(vec), oper: s.Op, mode: mode, a: nodes(idx, x)})
	default:
		l.errf(s.Pos, "unsupported assignment target %s", s.LHS)
	}
}

// mode is the one atomicity rule: plain in main; owned for dst-indexed
// accesses in the edge function under DensePull, where each destination
// belongs to one worker; atomic everywhere else.
func (l *lowerer) mode(onDst bool) access {
	switch {
	case l.inMain:
		return accPlain
	case l.edge && onDst:
		return accOwned
	}
	return accAtomic
}

func (l *lowerer) vector(e lang.Expr) int {
	if id, ok := e.(*lang.IdentExpr); ok {
		if v, ok := l.vecIdx[id.Name]; ok {
			return v
		}
	}
	l.errf(l.pos, "%s is not a vector", e)
	return 0
}

func (l *lowerer) isPQ(e lang.Expr) bool {
	id, ok := e.(*lang.IdentExpr)
	return ok && l.chk.PQNamed(id.Name)
}

func (l *lowerer) queueOp(method string) {
	if l.inMain {
		l.errf(l.pos, "priority-queue operator %s is only valid inside edge functions", method)
	}
}

// update lowers the Table 1 priority-update operators.
func (l *lowerer) update(mc *lang.MethodCallExpr) {
	l.queueOp(mc.Method)
	n := &node{op: oUpdate, a: nodes(l.as(kVertex, l.expr(mc.Args[0])))}
	switch mc.Method {
	case "updatePriorityMin", "updatePriorityMax":
		n.upd = analysis.UpdateMin
		if mc.Method == "updatePriorityMax" {
			n.upd = analysis.UpdateMax
		}
		// (v, new) or (v, old_hint, new): only the new value is used.
		n.a = append(n.a, l.as(kInt, l.expr(mc.Args[len(mc.Args)-1])))
	case "updatePrioritySum":
		floor := constant(core.NullMax+1, kInt, "graphit.NullMax + 1")
		if len(mc.Args) == 3 {
			floor = l.as(kInt, l.expr(mc.Args[2]))
		}
		n.upd, n.a = analysis.UpdateSum, append(n.a, l.as(kInt, l.expr(mc.Args[1])), floor)
	default:
		l.errf(mc.Pos, "unsupported priority-queue method %q", mc.Method)
	}
	l.emit(n)
}

func (l *lowerer) expr(e lang.Expr) *node {
	switch e := e.(type) {
	case *lang.IntLit:
		return constant(e.Value, kInt, "")
	case *lang.BoolLit:
		if e.Value {
			return constant(1, kBool, "")
		}
		return constant(0, kBool, "")
	case *lang.IdentExpr:
		switch e.Name {
		case "INT_MAX":
			return constant(core.Unreached, kInt, "graphit.Unreached")
		case "INT_MIN":
			return constant(core.NullMax, kInt, "graphit.NullMax")
		}
		if slot, ok := l.lookup(e.Name); ok {
			l.fn.slots[slot].read = true
			return &node{op: oLocal, k: l.fn.slots[slot].k, v: int64(slot)}
		}
		l.errf(e.Pos, "%q cannot be used as a value here", e.Name)
	case *lang.UnaryExpr:
		// -x is 0 - x and !x is x == false, so both back ends need only
		// binary operators.
		if e.Op == lang.Not {
			return &node{op: oBinary, k: kBool, oper: lang.Eq, a: nodes(l.as(kBool, l.expr(e.X)), constant(0, kBool, ""))}
		}
		return &node{op: oBinary, k: kInt, oper: lang.Minus, a: nodes(constant(0, kInt, ""), l.as(kInt, l.expr(e.X)))}
	case *lang.BinaryExpr:
		x, y := l.expr(e.L), l.expr(e.R)
		operand, result := kInt, kBool
		switch e.Op {
		case lang.Plus, lang.Minus, lang.Star, lang.Slash:
			result = kInt
		case lang.AndAnd, lang.OrOr:
			operand = kBool
		case lang.Eq, lang.Neq:
			if x.k == kBool {
				operand = kBool
			}
		}
		return &node{op: oBinary, k: result, oper: e.Op, a: nodes(l.as(operand, x), l.as(operand, y))}
	case *lang.IndexExpr:
		if isIdent(e.X, "argv") {
			l.errf(e.Pos, "argv is only supported as atoi(argv[i])")
		}
		mode := l.mode(l.dst != "" && isIdent(e.Index, l.dst))
		return &node{op: oLoad, k: kInt, v: int64(l.vector(e.X)), mode: mode, a: nodes(l.index(e.Index))}
	case *lang.CallExpr:
		return l.call(e)
	case *lang.MethodCallExpr:
		if l.isPQ(e.Recv) && e.Method == "getCurrentPriority" {
			l.queueOp(e.Method)
			return &node{op: oCurPrio, k: kInt}
		}
		if l.isPQ(e.Recv) && e.Method == "finishedVertex" {
			l.queueOp(e.Method)
			return &node{op: oFinished, k: kBool, a: nodes(l.as(kVertex, l.expr(e.Args[0])))}
		}
		l.errf(e.Pos, "unsupported method call %s", e)
	default:
		l.errf(e.Position(), "unsupported expression %s", e)
	}
	return nil
}

func (l *lowerer) call(e *lang.CallExpr) *node {
	switch e.Fn {
	case "atoi":
		if ix, ok := e.Args[0].(*lang.IndexExpr); ok && isIdent(ix.X, "argv") {
			return &node{op: oArgv, k: kInt, a: nodes(l.as(kInt, l.expr(ix.Index)))}
		}
		l.errf(e.Pos, "atoi is only supported on argv[i]")
	case "to_vertex":
		return l.as(kVertex, l.expr(e.Args[0]))
	}
	args := func(params []slotInfo) []*node {
		out := make([]*node, len(e.Args))
		for i, a := range e.Args {
			out[i] = l.as(params[i].k, l.expr(a))
		}
		return out
	}
	if ext, ok := l.extIdx[e.Fn]; ok {
		x := l.ir.externs[ext]
		return &node{op: oExtern, k: x.ret, v: int64(ext), a: args(x.params)}
	}
	fd := l.chk.Funcs[e.Fn]
	if fd == nil || fd.Name == "main" {
		l.errf(e.Pos, "call of unsupported function %q", e.Fn)
	}
	fn := l.userFunc(fd)
	return &node{op: oCall, k: fn.ret, fn: fn, a: args(fn.slots[:fn.params])}
}

func isIdent(e lang.Expr, name string) bool {
	id, ok := e.(*lang.IdentExpr)
	return ok && id.Name == name
}
