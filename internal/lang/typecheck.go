package lang

import (
	"fmt"
)

// Type is a resolved semantic type.
type Type struct {
	// Kind: "int", "bool", "float", "string", "void", an element name, or
	// "vector", "edgeset", "vertexset", "priority_queue".
	Kind    string
	Element string
	Value   *Type
	// Weighted marks weighted edgesets.
	Weighted bool
}

func (t *Type) String() string {
	switch t.Kind {
	case "vector":
		return fmt.Sprintf("vector{%s}(%s)", t.Element, t.Value)
	case "vertexset":
		return fmt.Sprintf("vertexset{%s}", t.Element)
	case "priority_queue":
		return fmt.Sprintf("priority_queue{%s}(%s)", t.Element, t.Value)
	case "edgeset":
		if t.Weighted {
			return fmt.Sprintf("edgeset{%s}(weighted)", t.Element)
		}
		return fmt.Sprintf("edgeset{%s}", t.Element)
	default:
		return t.Kind
	}
}

func (t *Type) isScalar() bool {
	switch t.Kind {
	case "int", "bool", "float", "string":
		return true
	}
	return false
}

var (
	intType    = &Type{Kind: "int"}
	boolType   = &Type{Kind: "bool"}
	floatType  = &Type{Kind: "float"}
	stringType = &Type{Kind: "string"}
	voidType   = &Type{Kind: "void"}
)

// GlobalInfo describes one global declaration after checking.
type GlobalInfo struct {
	Decl *ConstDecl
	Type *Type
}

// PQDecl captures the priority-queue construction found in main
// (`pq = new priority_queue{V}(int)(coarsen, dir, vec, start)`).
type PQDecl struct {
	Name            string // the global the queue is assigned to
	AllowCoarsening bool
	LowerFirst      bool
	PriorityVector  string // name of the vector global
	// StartExpr is the optional start-vertex argument (nil = all vertices
	// with non-null priority).
	StartExpr Expr
	Pos       Pos
}

// Checked is a type-checked program: the AST plus resolved symbol and type
// information consumed by the analyses and back ends.
type Checked struct {
	Prog     *Program
	Elements map[string]bool
	Globals  map[string]*GlobalInfo
	Funcs    map[string]*FuncDecl
	// EdgesetName is the (single) edgeset global; Weighted its weightedness.
	EdgesetName string
	Weighted    bool
	// PQ is the priority-queue construction, if main builds one.
	PQ *PQDecl
	// ExprTypes records the type of every expression.
	ExprTypes map[Expr]*Type
}

// PQNamed reports whether name is a priority-queue global.
func (c *Checked) PQNamed(name string) bool {
	g := c.Globals[name]
	return g != nil && g.Type.Kind == "priority_queue"
}

// Check type-checks a parsed program.
func Check(prog *Program) (*Checked, error) {
	c := &checker{
		out: &Checked{
			Prog:      prog,
			Elements:  map[string]bool{},
			Globals:   map[string]*GlobalInfo{},
			Funcs:     map[string]*FuncDecl{},
			ExprTypes: map[Expr]*Type{},
		},
	}
	if err := c.run(); err != nil {
		return nil, err
	}
	return c.out, nil
}

type checker struct {
	out    *Checked
	locals []map[string]*Type // scope stack for the current function
	fn     *FuncDecl
}

func (c *checker) errf(p Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

func (c *checker) resolveType(te *TypeExpr) (*Type, error) {
	switch te.Kind {
	case "int", "bool", "float", "string":
		return &Type{Kind: te.Kind}, nil
	case "vector", "priority_queue":
		if !c.out.Elements[te.Element] {
			return nil, c.errf(te.Pos, "unknown element type %q", te.Element)
		}
		v, err := c.resolveType(te.Value)
		if err != nil {
			return nil, err
		}
		if te.Kind == "priority_queue" && v.Kind != "int" {
			return nil, c.errf(te.Pos, "priority_queue value type must be int, got %s", v)
		}
		return &Type{Kind: te.Kind, Element: te.Element, Value: v}, nil
	case "vertexset":
		if !c.out.Elements[te.Element] {
			return nil, c.errf(te.Pos, "unknown element type %q", te.Element)
		}
		return &Type{Kind: "vertexset", Element: te.Element}, nil
	case "edgeset":
		if !c.out.Elements[te.Element] {
			return nil, c.errf(te.Pos, "unknown element type %q", te.Element)
		}
		for _, ep := range te.EdgeEndpoints {
			if !c.out.Elements[ep] {
				return nil, c.errf(te.Pos, "unknown endpoint element %q", ep)
			}
		}
		t := &Type{Kind: "edgeset", Element: te.EdgeEndpoints[0]}
		if te.EdgeWeight != nil {
			w, err := c.resolveType(te.EdgeWeight)
			if err != nil {
				return nil, err
			}
			if w.Kind != "int" {
				return nil, c.errf(te.Pos, "edge weights must be int, got %s", w)
			}
			t.Weighted = true
		}
		return t, nil
	default:
		if c.out.Elements[te.Kind] {
			return &Type{Kind: te.Kind}, nil
		}
		return nil, c.errf(te.Pos, "unknown type %q", te.Kind)
	}
}

func (c *checker) run() error {
	// Pass 1: collect element types.
	for _, d := range c.out.Prog.Decls {
		if e, ok := d.(*ElementDecl); ok {
			if c.out.Elements[e.Name] {
				return c.errf(e.Pos, "element %q redeclared", e.Name)
			}
			c.out.Elements[e.Name] = true
		}
	}
	// Pass 2: globals and function signatures.
	for _, d := range c.out.Prog.Decls {
		switch d := d.(type) {
		case *ConstDecl:
			if c.out.Globals[d.Name] != nil {
				return c.errf(d.Pos, "global %q redeclared", d.Name)
			}
			t, err := c.resolveType(d.Type)
			if err != nil {
				return err
			}
			c.out.Globals[d.Name] = &GlobalInfo{Decl: d, Type: t}
			if t.Kind == "edgeset" {
				if c.out.EdgesetName != "" {
					return c.errf(d.Pos, "only one edgeset global is supported (already have %q)", c.out.EdgesetName)
				}
				c.out.EdgesetName = d.Name
				c.out.Weighted = t.Weighted
			}
		case *FuncDecl:
			if c.out.Funcs[d.Name] != nil {
				return c.errf(d.Pos, "function %q redeclared", d.Name)
			}
			c.out.Funcs[d.Name] = d
			for _, p := range d.Params {
				if _, err := c.resolveType(p.Type); err != nil {
					return err
				}
			}
			if d.Ret != nil {
				if _, err := c.resolveType(d.Ret); err != nil {
					return err
				}
			}
		}
	}
	// Pass 3: global initializers.
	for _, d := range c.out.Prog.Decls {
		cd, ok := d.(*ConstDecl)
		if !ok || cd.Init == nil {
			continue
		}
		gt := c.out.Globals[cd.Name].Type
		it, err := c.exprType(cd.Init)
		if err != nil {
			return err
		}
		switch gt.Kind {
		case "edgeset":
			if call, ok := cd.Init.(*CallExpr); !ok || call.Fn != "load" {
				return c.errf(cd.Pos, "edgeset must be initialized with load(...)")
			}
		case "vector":
			if it.Kind != gt.Value.Kind {
				return c.errf(cd.Pos, "vector{%s}(%s) initialized with %s", gt.Element, gt.Value, it)
			}
		case "priority_queue":
			return c.errf(cd.Pos, "priority queues are constructed in main with `new`")
		default:
			if it.Kind != gt.Kind {
				return c.errf(cd.Pos, "%s initialized with %s", gt, it)
			}
		}
	}
	// Pass 4: function bodies.
	for _, d := range c.out.Prog.Decls {
		fd, ok := d.(*FuncDecl)
		if !ok || fd.Extern {
			continue
		}
		if err := c.checkFunc(fd); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) pushScope() { c.locals = append(c.locals, map[string]*Type{}) }
func (c *checker) popScope()  { c.locals = c.locals[:len(c.locals)-1] }

func (c *checker) declareLocal(name string, t *Type, p Pos) error {
	scope := c.locals[len(c.locals)-1]
	if scope[name] != nil {
		return c.errf(p, "variable %q redeclared in this scope", name)
	}
	scope[name] = t
	return nil
}

func (c *checker) lookupLocal(name string) *Type {
	for i := len(c.locals) - 1; i >= 0; i-- {
		if t := c.locals[i][name]; t != nil {
			return t
		}
	}
	return nil
}

func (c *checker) checkFunc(fd *FuncDecl) error {
	c.fn = fd
	c.pushScope()
	defer c.popScope()
	for _, p := range fd.Params {
		t, err := c.resolveType(p.Type)
		if err != nil {
			return err
		}
		if err := c.declareLocal(p.Name, t, fd.Pos); err != nil {
			return err
		}
	}
	return c.checkStmts(fd.Body)
}

func (c *checker) checkStmts(stmts []Stmt) error {
	for _, s := range stmts {
		if err := c.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *VarDeclStmt:
		t, err := c.resolveType(s.Type)
		if err != nil {
			return err
		}
		if s.Init != nil {
			it, err := c.exprType(s.Init)
			if err != nil {
				return err
			}
			if !assignable(t, it) {
				return c.errf(s.Pos, "cannot initialize %s %q with %s", t, s.Name, it)
			}
		}
		return c.declareLocal(s.Name, t, s.Pos)
	case *AssignStmt:
		return c.checkAssign(s)
	case *ExprStmt:
		_, err := c.exprType(s.E)
		return err
	case *WhileStmt:
		t, err := c.exprType(s.Cond)
		if err != nil {
			return err
		}
		if t.Kind != "bool" {
			return c.errf(s.Pos, "while condition must be bool, got %s", t)
		}
		c.pushScope()
		defer c.popScope()
		return c.checkStmts(s.Body)
	case *IfStmt:
		t, err := c.exprType(s.Cond)
		if err != nil {
			return err
		}
		if t.Kind != "bool" {
			return c.errf(s.Pos, "if condition must be bool, got %s", t)
		}
		c.pushScope()
		if err := c.checkStmts(s.Then); err != nil {
			c.popScope()
			return err
		}
		c.popScope()
		if s.Else != nil {
			c.pushScope()
			defer c.popScope()
			return c.checkStmts(s.Else)
		}
		return nil
	case *LabeledStmt:
		return c.checkStmt(s.S)
	case *DeleteStmt:
		if c.lookupLocal(s.Name) == nil && c.out.Globals[s.Name] == nil {
			return c.errf(s.Pos, "delete of undeclared name %q", s.Name)
		}
		return nil
	case *ReturnStmt:
		if s.E == nil {
			if c.fn.Ret != nil {
				return c.errf(s.Pos, "missing return value")
			}
			return nil
		}
		t, err := c.exprType(s.E)
		if err != nil {
			return err
		}
		if c.fn.Ret == nil {
			return c.errf(s.Pos, "return value in function without return type")
		}
		rt, err := c.resolveType(c.fn.Ret)
		if err != nil {
			return err
		}
		if !assignable(rt, t) {
			return c.errf(s.Pos, "cannot return %s from function returning %s", t, rt)
		}
		return nil
	case *PrintStmt:
		_, err := c.exprType(s.E)
		return err
	}
	return fmt.Errorf("lang: unhandled statement %T", s)
}

// assignable reports whether a value of type src can be stored in dst.
// Element values (Vertex) interconvert with int, as GraphIt indexes vectors
// with both.
func assignable(dst, src *Type) bool {
	if dst.Kind == src.Kind {
		return true
	}
	isVertexLike := func(t *Type) bool {
		return t.Kind == "int" || !t.isScalar() && t.Kind != "vector" && t.Kind != "edgeset" && t.Kind != "vertexset" && t.Kind != "priority_queue" && t.Kind != "void"
	}
	return isVertexLike(dst) && isVertexLike(src)
}

func (c *checker) checkAssign(s *AssignStmt) error {
	rt, err := c.exprType(s.RHS)
	if err != nil {
		return err
	}
	switch lhs := s.LHS.(type) {
	case *IdentExpr:
		if t := c.lookupLocal(lhs.Name); t != nil {
			if s.Op != Assign && t.Kind != "int" && t.Kind != "float" {
				return c.errf(s.Pos, "%s requires numeric target, got %s", s.Op, t)
			}
			if !assignable(t, rt) {
				return c.errf(s.Pos, "cannot assign %s to %s %q", rt, t, lhs.Name)
			}
			c.out.ExprTypes[lhs] = t
			return nil
		}
		g := c.out.Globals[lhs.Name]
		if g == nil {
			return c.errf(s.Pos, "assignment to undeclared name %q", lhs.Name)
		}
		switch g.Type.Kind {
		case "priority_queue":
			pq, ok := s.RHS.(*NewPQExpr)
			if !ok {
				return c.errf(s.Pos, "priority queue %q must be assigned a `new priority_queue`", lhs.Name)
			}
			return c.checkPQConstruction(lhs.Name, pq)
		case "vector":
			// Whole-vector assignment: scalar broadcast or degree init.
			if rt.Kind == "vector" || assignable(g.Type.Value, rt) {
				c.out.ExprTypes[lhs] = g.Type
				return nil
			}
			return c.errf(s.Pos, "cannot assign %s to %s", rt, g.Type)
		default:
			if !assignable(g.Type, rt) {
				return c.errf(s.Pos, "cannot assign %s to %s %q", rt, g.Type, lhs.Name)
			}
			c.out.ExprTypes[lhs] = g.Type
			return nil
		}
	case *IndexExpr:
		t, err := c.exprType(lhs)
		if err != nil {
			return err
		}
		if s.Op != Assign && t.Kind != "int" && t.Kind != "float" {
			return c.errf(s.Pos, "%s requires numeric target, got %s", s.Op, t)
		}
		if !assignable(t, rt) {
			return c.errf(s.Pos, "cannot assign %s to element of type %s", rt, t)
		}
		return nil
	}
	return c.errf(s.Pos, "invalid assignment target")
}

func (c *checker) checkPQConstruction(name string, pq *NewPQExpr) error {
	if c.out.PQ != nil {
		return c.errf(pq.Pos, "only one priority queue construction is supported")
	}
	if len(pq.Args) != 3 && len(pq.Args) != 4 {
		return c.errf(pq.Pos, "priority_queue constructor takes (coarsen, direction, vector[, start]), got %d args", len(pq.Args))
	}
	coarsen, ok := pq.Args[0].(*BoolLit)
	if !ok {
		return c.errf(pq.Pos, "first constructor argument must be a bool literal")
	}
	dir, ok := pq.Args[1].(*StringLit)
	if !ok || (dir.Value != "lower_first" && dir.Value != "higher_first") {
		return c.errf(pq.Pos, `second constructor argument must be "lower_first" or "higher_first"`)
	}
	vec, ok := pq.Args[2].(*IdentExpr)
	if !ok || c.out.Globals[vec.Name] == nil || c.out.Globals[vec.Name].Type.Kind != "vector" {
		return c.errf(pq.Pos, "third constructor argument must name a vector global")
	}
	d := &PQDecl{
		Name:            name,
		AllowCoarsening: coarsen.Value,
		LowerFirst:      dir.Value == "lower_first",
		PriorityVector:  vec.Name,
		Pos:             pq.Pos,
	}
	if len(pq.Args) == 4 {
		t, err := c.exprType(pq.Args[3])
		if err != nil {
			return err
		}
		if t.Kind != "int" {
			return c.errf(pq.Pos, "start vertex must be int, got %s", t)
		}
		d.StartExpr = pq.Args[3]
	}
	c.out.PQ = d
	return nil
}
