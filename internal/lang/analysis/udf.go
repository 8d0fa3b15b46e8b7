package analysis

import (
	"fmt"

	"graphit/internal/lang"
)

// analyzeUDF runs the dependence and constant-sum analyses on one edge
// update function.
func analyzeUDF(chk *lang.Checked, fd *lang.FuncDecl) (*UDFInfo, error) {
	if fd == nil {
		return nil, fmt.Errorf("analysis: nil edge function")
	}
	info := &UDFInfo{Func: fd}
	info.SrcName = fd.Params[0].Name
	info.DstName = fd.Params[1].Name
	if len(fd.Params) > 2 {
		info.WeightName = fd.Params[2].Name
	}

	// Local bindings: variable name -> initializer (for threshold tracing).
	inits := map[string]lang.Expr{}
	reads := map[string]bool{}

	var walkExpr func(e lang.Expr) error
	var walkStmts func(ss []lang.Stmt) error

	walkExpr = func(e lang.Expr) error {
		switch e := e.(type) {
		case nil:
			return nil
		case *lang.IndexExpr:
			if id, ok := e.X.(*lang.IdentExpr); ok {
				if g := chk.Globals[id.Name]; g != nil && g.Type.Kind == "vector" {
					reads[id.Name] = true
				}
			}
			return walkExpr(e.Index)
		case *lang.BinaryExpr:
			if err := walkExpr(e.L); err != nil {
				return err
			}
			return walkExpr(e.R)
		case *lang.UnaryExpr:
			return walkExpr(e.X)
		case *lang.CallExpr:
			for _, a := range e.Args {
				if err := walkExpr(a); err != nil {
					return err
				}
			}
			return nil
		case *lang.MethodCallExpr:
			if isPQ(chk, e.Recv) {
				if u, ok2 := classifyUpdate(e); ok2 {
					info.Updates = append(info.Updates, u)
				}
			}
			for _, a := range e.Args {
				if err := walkExpr(a); err != nil {
					return err
				}
			}
			return walkExpr(e.Recv)
		default:
			return nil
		}
	}

	walkStmts = func(ss []lang.Stmt) error {
		for _, s := range ss {
			switch s := s.(type) {
			case *lang.VarDeclStmt:
				inits[s.Name] = s.Init
				if err := walkExpr(s.Init); err != nil {
					return err
				}
			case *lang.AssignStmt:
				if err := walkExpr(s.RHS); err != nil {
					return err
				}
				if idx, ok := s.LHS.(*lang.IndexExpr); ok {
					if id, ok2 := idx.X.(*lang.IdentExpr); ok2 {
						if g := chk.Globals[id.Name]; g != nil && g.Type.Kind == "vector" {
							w := VectorWrite{
								Vector:    id.Name,
								Index:     idx.Index,
								Stmt:      s,
								OnDst:     exprIsParam(idx.Index, info.DstName),
								Reduction: s.Op != lang.Assign,
							}
							info.Writes = append(info.Writes, w)
						}
					}
					if err := walkExpr(idx.Index); err != nil {
						return err
					}
				}
			case *lang.ExprStmt:
				if err := walkExpr(s.E); err != nil {
					return err
				}
			case *lang.IfStmt:
				if err := walkExpr(s.Cond); err != nil {
					return err
				}
				if err := walkStmts(s.Then); err != nil {
					return err
				}
				if err := walkStmts(s.Else); err != nil {
					return err
				}
			case *lang.WhileStmt:
				if err := walkExpr(s.Cond); err != nil {
					return err
				}
				if err := walkStmts(s.Body); err != nil {
					return err
				}
			case *lang.LabeledStmt:
				if err := walkStmts([]lang.Stmt{s.S}); err != nil {
					return err
				}
			case *lang.ReturnStmt:
				if err := walkExpr(s.E); err != nil {
					return err
				}
			case *lang.PrintStmt:
				if err := walkExpr(s.E); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walkStmts(fd.Body); err != nil {
		return nil, err
	}

	for v := range reads {
		info.ReadsVectors = append(info.ReadsVectors, v)
	}
	// Monotonicity check (paper §2: priorities "can only be increased, or
	// only be decreased"): a UDF mixing update kinds, or pushing against
	// the queue's direction, violates the ordered-execution contract.
	var kind *UpdateKind
	for i := range info.Updates {
		k := info.Updates[i].Kind
		if kind != nil && *kind != k {
			return nil, fmt.Errorf("analysis: %s: %s mixes updatePriority%s and updatePriority%s; priorities must change monotonically (paper §2)",
				fd.Pos, fd.Name, titleKind(*kind), titleKind(k))
		}
		kind = &k
	}
	if chk.PQ != nil && kind != nil {
		if *kind == UpdateMin && !chk.PQ.LowerFirst {
			return nil, fmt.Errorf("analysis: %s: %s lowers priorities on a higher_first queue", fd.Pos, fd.Name)
		}
		if *kind == UpdateMax && chk.PQ.LowerFirst {
			return nil, fmt.Errorf("analysis: %s: %s raises priorities on a lower_first queue", fd.Pos, fd.Name)
		}
	}
	// Dependence analysis (paper §5.1): any priority update or dst-indexed
	// vector write can conflict across parallel edge applications in push
	// direction, so atomics are required.
	for _, w := range info.Writes {
		if w.OnDst {
			info.NeedsAtomics = true
		}
	}
	if len(info.Updates) > 0 {
		info.NeedsAtomics = true
	}

	// Constant-sum detection (paper Figure 10): exactly one update, a sum
	// with a literal constant delta whose threshold traces back to
	// pq.getCurrentPriority().
	if len(info.Updates) == 1 && info.Updates[0].Kind == UpdateSum {
		u := info.Updates[0]
		if konst, ok := constIntValue(u.Value); ok {
			cs := &ConstantSumInfo{Const: konst}
			if u.Threshold != nil && thresholdIsCurrentPriority(chk, u.Threshold, inits) {
				cs.ThresholdIsCurrentPriority = true
			}
			// The update must target the destination parameter and the UDF
			// must have no other vertex-data writes for the transformation
			// to be sound.
			if exprIsParam(u.Vertex, info.DstName) && len(info.Writes) == 0 {
				info.ConstantSum = cs
			}
		}
	}
	info.MinPlus = isMinPlus(chk, info)
	return info, nil
}

// isMinPlus matches the UDF body against the shape UDFInfo.MinPlus
// documents.
func isMinPlus(chk *lang.Checked, info *UDFInfo) bool {
	if chk.PQ == nil || info.WeightName == "" {
		return false
	}
	prio, body := chk.PQ.PriorityVector, info.Func.Body
	var sum lang.Expr
	local := ""
	if len(body) == 2 {
		vd, ok := body[0].(*lang.VarDeclStmt)
		if !ok || vd.Type.Kind != "int" || vd.Init == nil ||
			vd.Name == prio || vd.Name == info.SrcName || vd.Name == info.DstName {
			return false
		}
		sum, local, body = vd.Init, vd.Name, body[1:]
	}
	if len(body) != 1 {
		return false
	}
	es, ok := body[0].(*lang.ExprStmt)
	if !ok {
		return false
	}
	mc, ok := es.E.(*lang.MethodCallExpr)
	if !ok || mc.Method != "updatePriorityMin" || !isPQ(chk, mc.Recv) || !exprIsParam(mc.Args[0], info.DstName) {
		return false
	}
	if len(mc.Args) == 3 && !isElem(mc.Args[1], prio, info.DstName) {
		return false
	}
	val := mc.Args[len(mc.Args)-1]
	if local == "" {
		sum = val
	} else if !exprIsParam(val, local) {
		return false
	}
	b, ok := sum.(*lang.BinaryExpr)
	if !ok || b.Op != lang.Plus {
		return false
	}
	return isElem(b.L, prio, info.SrcName) && exprIsParam(b.R, info.WeightName) ||
		isElem(b.R, prio, info.SrcName) && exprIsParam(b.L, info.WeightName)
}

// isPQ reports whether e names the priority queue.
func isPQ(chk *lang.Checked, e lang.Expr) bool {
	id, ok := e.(*lang.IdentExpr)
	return ok && chk.PQNamed(id.Name)
}

// isElem reports whether e is vec[param].
func isElem(e lang.Expr, vec, param string) bool {
	ix, ok := e.(*lang.IndexExpr)
	return ok && exprIsParam(ix.X, vec) && exprIsParam(ix.Index, param)
}

// titleKind renders an update kind as the operator-name suffix.
func titleKind(k UpdateKind) string {
	switch k {
	case UpdateMin:
		return "Min"
	case UpdateMax:
		return "Max"
	default:
		return "Sum"
	}
}

// classifyUpdate recognizes the Table 1 priority-update operators.
func classifyUpdate(e *lang.MethodCallExpr) (PriorityUpdate, bool) {
	switch e.Method {
	case "updatePriorityMin", "updatePriorityMax":
		k := UpdateMin
		if e.Method == "updatePriorityMax" {
			k = UpdateMax
		}
		// (v, new) or (v, old_hint, new): the new value is the last arg.
		return PriorityUpdate{
			Kind:   k,
			Call:   e,
			Vertex: e.Args[0],
			Value:  e.Args[len(e.Args)-1],
		}, true
	case "updatePrioritySum":
		u := PriorityUpdate{
			Kind:   UpdateSum,
			Call:   e,
			Vertex: e.Args[0],
			Value:  e.Args[1],
		}
		if len(e.Args) == 3 {
			u.Threshold = e.Args[2]
		}
		return u, true
	}
	return PriorityUpdate{}, false
}

// exprIsParam reports whether e is a plain reference to the named parameter.
func exprIsParam(e lang.Expr, name string) bool {
	id, ok := e.(*lang.IdentExpr)
	return ok && id.Name == name
}

// constIntValue evaluates literal integer expressions (with unary minus).
func constIntValue(e lang.Expr) (int64, bool) {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Value, true
	case *lang.UnaryExpr:
		if e.Op == lang.Minus {
			if v, ok := constIntValue(e.X); ok {
				return -v, true
			}
		}
	}
	return 0, false
}

// thresholdIsCurrentPriority traces a threshold expression to
// pq.getCurrentPriority(), directly or through one local variable.
func thresholdIsCurrentPriority(chk *lang.Checked, e lang.Expr, inits map[string]lang.Expr) bool {
	switch e := e.(type) {
	case *lang.MethodCallExpr:
		if recv, ok := e.Recv.(*lang.IdentExpr); ok {
			return chk.PQNamed(recv.Name) && e.Method == "getCurrentPriority"
		}
	case *lang.IdentExpr:
		if init, ok := inits[e.Name]; ok && init != nil {
			return thresholdIsCurrentPriority(chk, init, inits)
		}
	}
	return false
}
