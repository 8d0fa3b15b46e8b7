package analysis

import (
	"fmt"

	"graphit/internal/lang"
)

// findLoop performs the while-loop pattern detection of paper §5.2 on main:
// it locates the ordered processing loop, verifies the dequeued bucket has
// no uses other than the applyUpdatePriority operator (and its delete), and
// splits main into pre-loop and post-loop statements.
func (r *Result) findLoop(mainFn *lang.FuncDecl) error {
	var loopIdx = -1
	for i, s := range mainFn.Body {
		w, ok := s.(*lang.WhileStmt)
		if !ok {
			continue
		}
		stop, isPQ := r.loopCondition(w.Cond)
		if !isPQ {
			continue
		}
		if loopIdx >= 0 {
			return fmt.Errorf("analysis: %s: multiple ordered loops in main are not supported", w.Pos)
		}
		loopIdx = i
		li, err := r.classifyLoopBody(w)
		if err != nil {
			return err
		}
		li.StopVertex = stop
		r.Loop = li
	}
	if loopIdx < 0 {
		r.Pre = mainFn.Body
		return nil
	}
	r.Pre = mainFn.Body[:loopIdx]
	r.Post = mainFn.Body[loopIdx+1:]
	return nil
}

// loopCondition recognizes `pq.finished() == false`, `!pq.finished()`,
// `pq.finishedVertex(x) == false`, and `!pq.finishedVertex(x)`. It returns
// the early-termination vertex (nil for plain finished) and whether the
// condition is a priority-queue termination test at all.
func (r *Result) loopCondition(cond lang.Expr) (lang.Expr, bool) {
	var call *lang.MethodCallExpr
	switch c := cond.(type) {
	case *lang.BinaryExpr:
		if c.Op != lang.Eq {
			return nil, false
		}
		b, ok := c.R.(*lang.BoolLit)
		if !ok || b.Value {
			return nil, false
		}
		call, ok = c.L.(*lang.MethodCallExpr)
		if !ok {
			return nil, false
		}
	case *lang.UnaryExpr:
		if c.Op != lang.Not {
			return nil, false
		}
		var ok bool
		call, ok = c.X.(*lang.MethodCallExpr)
		if !ok {
			return nil, false
		}
	default:
		return nil, false
	}
	recv, ok := call.Recv.(*lang.IdentExpr)
	if !ok || !r.Checked.PQNamed(recv.Name) {
		return nil, false
	}
	switch call.Method {
	case "finished":
		return nil, true
	case "finishedVertex":
		return call.Args[0], true
	}
	return nil, false
}

// classifyLoopBody checks the loop body against the compilable patterns:
//
//	var bucket = pq.dequeueReadySet();
//	#label# edges.from(bucket).applyUpdatePriority(udf);   (standard)
//	   — or one or more bucket.applyExtern*(f) calls        (extern-driven)
//	delete bucket;                                          (optional)
func (r *Result) classifyLoopBody(w *lang.WhileStmt) (*LoopInfo, error) {
	li := &LoopInfo{While: w}
	body := w.Body
	if len(body) == 0 {
		return nil, fmt.Errorf("analysis: %s: empty ordered loop", w.Pos)
	}
	vd, ok := body[0].(*lang.VarDeclStmt)
	if !ok {
		return nil, fmt.Errorf("analysis: %s: ordered loop must start with `var bucket = pq.dequeueReadySet()`", w.Pos)
	}
	dq, ok := vd.Init.(*lang.MethodCallExpr)
	if !ok || dq.Method != "dequeueReadySet" {
		return nil, fmt.Errorf("analysis: %s: ordered loop must dequeue with dequeueReadySet", vd.Pos)
	}
	li.BucketVar = vd.Name

	sawApply := false
	for _, s := range body[1:] {
		label := ""
		if ls, okL := s.(*lang.LabeledStmt); okL {
			label = ls.Label
			s = ls.S
		}
		switch s := s.(type) {
		case *lang.DeleteStmt:
			if s.Name != li.BucketVar {
				return nil, fmt.Errorf("analysis: %s: delete of %q inside ordered loop", s.Pos, s.Name)
			}
		case *lang.ExprStmt:
			mc, okM := s.E.(*lang.MethodCallExpr)
			if !okM {
				return nil, fmt.Errorf("analysis: %s: unsupported statement in ordered loop", s.Pos)
			}
			switch mc.Method {
			case "applyUpdatePriority":
				if sawApply {
					return nil, fmt.Errorf("analysis: %s: multiple applyUpdatePriority operators in one loop", s.Pos)
				}
				if err := checkApplyReceiver(r.Checked, mc.Recv, li.BucketVar); err != nil {
					return nil, err
				}
				li.UDFName = mc.Args[0].(*lang.IdentExpr).Name
				li.Label = label
				sawApply = true
			case "applyExtern", "applyExternReduce":
				recv, okR := mc.Recv.(*lang.IdentExpr)
				if !okR || recv.Name != li.BucketVar {
					return nil, fmt.Errorf("analysis: %s: %s must be applied to the dequeued bucket", s.Pos, mc.Method)
				}
				li.ExternDriven = true
				if li.Label == "" {
					li.Label = label
				}
			default:
				return nil, fmt.Errorf("analysis: %s: unsupported operator %q in ordered loop", s.Pos, mc.Method)
			}
		default:
			return nil, fmt.Errorf("analysis: %s: unsupported statement in ordered loop (the bucket may only feed applyUpdatePriority)", w.Pos)
		}
	}
	if !sawApply && !li.ExternDriven {
		return nil, fmt.Errorf("analysis: %s: ordered loop applies nothing to the bucket", w.Pos)
	}
	if sawApply && li.ExternDriven {
		return nil, fmt.Errorf("analysis: %s: mixing applyUpdatePriority and extern application is not supported", w.Pos)
	}
	return li, nil
}

// checkApplyReceiver verifies the receiver chain is
// `edges.from(bucketVar)` over the program's edgeset.
func checkApplyReceiver(chk *lang.Checked, recv lang.Expr, bucketVar string) error {
	from, ok := recv.(*lang.MethodCallExpr)
	if !ok || from.Method != "from" {
		return fmt.Errorf("analysis: applyUpdatePriority must be applied to edges.from(bucket)")
	}
	es, ok := from.Recv.(*lang.IdentExpr)
	if !ok || es.Name != chk.EdgesetName {
		return fmt.Errorf("analysis: applyUpdatePriority must traverse the edgeset %q", chk.EdgesetName)
	}
	arg, ok := from.Args[0].(*lang.IdentExpr)
	if !ok || arg.Name != bucketVar {
		return fmt.Errorf("analysis: edges.from must take the dequeued bucket %q", bucketVar)
	}
	return nil
}
