// Package analysis implements the paper's compiler analyses (Section 5):
//
//   - dependence analysis on user-defined functions to decide where atomic
//     instructions are required (write-write conflicts on vertex data in
//     push traversals) and where tracking variables must be inserted;
//   - constant-sum detection, which recognizes updatePrioritySum calls with
//     a fixed literal delta and a getCurrentPriority threshold, enabling
//     the histogram (lazy_constant_sum) schedule of Figure 10;
//   - min-plus detection, which recognizes Figure 3's relaxation so the
//     engine runs its native operator instead of the compiled UDF;
//   - while-loop pattern detection on main, which proves the ordered loop
//     has no other uses of the dequeued bucket so the eager transformation
//     (Figure 9(c)) is legal, and extracts early-termination targets from
//     finishedVertex conditions.
package analysis

import (
	"fmt"

	"graphit/internal/lang"
)

// UpdateKind classifies a priority update operator.
type UpdateKind int

const (
	UpdateMin UpdateKind = iota
	UpdateMax
	UpdateSum
)

func (k UpdateKind) String() string {
	switch k {
	case UpdateMin:
		return "min"
	case UpdateMax:
		return "max"
	default:
		return "sum"
	}
}

// PriorityUpdate is one updatePriority* call site inside a UDF.
type PriorityUpdate struct {
	Kind UpdateKind
	Call *lang.MethodCallExpr
	// Vertex is the updated vertex argument.
	Vertex lang.Expr
	// Value is the new priority (min/max) or the delta (sum).
	Value lang.Expr
	// Threshold is the optional min_threshold of updatePrioritySum.
	Threshold lang.Expr
}

// VectorWrite is a write to vertex data inside a UDF.
type VectorWrite struct {
	Vector string
	Index  lang.Expr
	Stmt   *lang.AssignStmt
	// OnDst reports whether the write targets the destination parameter —
	// the write-write conflict case that needs atomics under SparsePush.
	OnDst bool
	// Reduction reports min= / += writes (compiled to atomic write-min /
	// fetch-add rather than CAS loops).
	Reduction bool
}

// UDFInfo is the analysis result for one edge update function.
type UDFInfo struct {
	Func    *lang.FuncDecl
	SrcName string
	DstName string
	// WeightName is "" for unweighted edgesets.
	WeightName string
	Updates    []PriorityUpdate
	Writes     []VectorWrite
	// NeedsAtomics: under SparsePush, concurrent applications may write the
	// same destination, so priority updates and dst-indexed writes need
	// atomic instructions (paper §5.1).
	NeedsAtomics bool
	// ConstantSum is non-nil when the UDF qualifies for the histogram
	// schedule: exactly one update, a sum with a constant literal delta
	// whose threshold is the current priority (paper Figure 10).
	ConstantSum *ConstantSumInfo
	// ReadsVectors lists vector globals read by the UDF.
	ReadsVectors []string
	// MinPlus reports that the UDF is exactly paper Figure 3's relaxation
	// over the queue's own priority vector P —
	//
	//	[var x : int = P[src] + w;] pq.updatePriorityMin(dst, [P[dst],] x)
	//
	// with the sum written in place of x or its operands swapped — so the
	// back ends hand the engine core.MinPlus instead of compiling the body.
	MinPlus bool
}

// ConstantSumInfo carries the extracted constants for lazy_constant_sum.
type ConstantSumInfo struct {
	Const                      int64
	ThresholdIsCurrentPriority bool
}

// LoopInfo is the recognized ordered while loop of main.
type LoopInfo struct {
	While *lang.WhileStmt
	// Label is the scheduling label on the applyUpdatePriority statement,
	// or on the first labeled phase of an extern-driven loop.
	Label string
	// BucketVar is the dequeued vertexset variable.
	BucketVar string
	// UDFName is the edge function applied each round.
	UDFName string
	// StopVertex is the finishedVertex target for early termination
	// (nil for plain pq.finished() loops).
	StopVertex lang.Expr
	// ExternDriven marks loops that apply extern functions to the bucket
	// instead of a single edgeset applyUpdatePriority; they run under lazy
	// manual mode only.
	ExternDriven bool
}

// Result is the complete analysis of a checked program.
type Result struct {
	Checked *lang.Checked
	// UDFs maps function names used in applyUpdatePriority to their info.
	UDFs map[string]*UDFInfo
	Loop *LoopInfo
	// Pre and Post are main's statements before and after the ordered loop.
	Pre, Post []lang.Stmt
}

// Analyze runs all analyses over a checked program.
func Analyze(chk *lang.Checked) (*Result, error) {
	res := &Result{Checked: chk, UDFs: map[string]*UDFInfo{}}
	mainFn := chk.Funcs["main"]
	if mainFn == nil {
		return nil, fmt.Errorf("analysis: program has no main function")
	}
	if err := res.findLoop(mainFn); err != nil {
		return nil, err
	}
	if res.Loop != nil && !res.Loop.ExternDriven {
		info, err := analyzeUDF(chk, chk.Funcs[res.Loop.UDFName])
		if err != nil {
			return nil, err
		}
		res.UDFs[res.Loop.UDFName] = info
	}
	return res, nil
}
