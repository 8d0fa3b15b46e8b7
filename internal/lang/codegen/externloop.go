package codegen

import "graphit/internal/core"

// externLoop completes op as the operator of an extern-driven ordered loop
// (the escape hatch the paper's SetCover uses): each round dequeues a
// bucket and applies host-bound extern functions to its vertices, one
// vertex pass per phase, in order.
//
//   - applyExtern(f): f(v) is called for every dequeued vertex (parallel;
//     the host function must be safe for concurrent use).
//   - applyExternReduce(f): f(v) returns the vertex's new priority, and the
//     vertex is re-filed there (INT_MIN / INT_MAX mark removal).
//
// A dequeued vertex no reduce phase re-files leaves the queue. The loop runs
// under lazy SparsePush whatever its schedule (on its first labeled phase)
// names, and never finalizes dequeued vertices, which would drop every
// re-filed one.
func (m *machine) externLoop(op *core.Ordered, lp *irLoop) *core.Ordered {
	op.FinalizeOnPop = false
	op.Cfg.Strategy, op.Cfg.Direction = core.Lazy, core.SparsePush
	for i, ext := range lp.phases {
		fn, reduce := m.exts[ext], lp.reduce[i]
		op.Passes = append(op.Passes, func(vs []uint32, _ int, u *core.Updater) int64 {
			for _, v := range vs {
				if np := fn(int64(v)); reduce {
					u.SetPriority(v, np)
				}
			}
			return int64(len(vs))
		})
	}
	return op
}
