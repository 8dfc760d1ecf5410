package tensordsl

import (
	"fmt"

	"ipusparse/internal/graph"
	"ipusparse/internal/ipu"
)

// Expr is a lazy expression object (paper §III-C). Combining expressions
// does not touch the program; only materialization (Tensor.Assign or
// Session.Temp) generates a fused codelet per tile and schedules it in the
// current program step.
type Expr struct {
	s    *Session
	kind exprKind
	t    *Tensor // leafTensor
	c    float64 // leafConst
	op   byte    // '+', '-', '*', '/', 'n'(neg), 'a'(abs), 'q'(sqrt)
	a, b *Expr
	dt   ipu.Scalar
}

type exprKind int

const (
	leafTensor exprKind = iota
	leafConst
	unaryExpr
	binaryExpr
)

// E lifts a value into an expression: *Tensor, *Expr, float64 or int.
func E(v interface{}) *Expr {
	switch x := v.(type) {
	case *Expr:
		return x
	case *Tensor:
		return &Expr{s: x.s, kind: leafTensor, t: x, dt: x.dt}
	case float64:
		return &Expr{kind: leafConst, c: x, dt: ipu.F32}
	case float32:
		return &Expr{kind: leafConst, c: float64(x), dt: ipu.F32}
	case int:
		return &Expr{kind: leafConst, c: float64(x), dt: ipu.F32}
	default:
		panic(fmt.Sprintf("tensordsl: cannot lift %T into an expression", v))
	}
}

func promote(a, b ipu.Scalar) ipu.Scalar {
	rank := func(k ipu.Scalar) int {
		switch k {
		case ipu.F32:
			return 1
		case ipu.DW:
			return 2
		case ipu.F64:
			return 3
		}
		return 0
	}
	if rank(a) >= rank(b) {
		return a
	}
	return b
}

func binary(op byte, a, b interface{}) *Expr {
	ea, eb := E(a), E(b)
	s := ea.s
	if s == nil {
		s = eb.s
	}
	return &Expr{s: s, kind: binaryExpr, op: op, a: ea, b: eb, dt: promote(ea.dt, eb.dt)}
}

func unary(op byte, a interface{}) *Expr {
	ea := E(a)
	return &Expr{s: ea.s, kind: unaryExpr, op: op, a: ea, dt: ea.dt}
}

// Add returns a + b elementwise (operands broadcast per NumPy rules:
// replicated scalars expand to the distributed shape inside the generated
// codelet, never in memory).
func Add(a, b interface{}) *Expr { return binary('+', a, b) }

// Sub returns a - b elementwise.
func Sub(a, b interface{}) *Expr { return binary('-', a, b) }

// Mul returns a * b elementwise.
func Mul(a, b interface{}) *Expr { return binary('*', a, b) }

// Div returns a / b elementwise.
func Div(a, b interface{}) *Expr { return binary('/', a, b) }

// Neg returns -a elementwise.
func Neg(a interface{}) *Expr { return unary('n', a) }

// Abs returns |a| elementwise.
func Abs(a interface{}) *Expr { return unary('a', a) }

// Sqrt returns the square root elementwise.
func Sqrt(a interface{}) *Expr { return unary('q', a) }

// Add chains e + b.
func (e *Expr) Add(b interface{}) *Expr { return Add(e, b) }

// Sub chains e - b.
func (e *Expr) Sub(b interface{}) *Expr { return Sub(e, b) }

// Mul chains e * b.
func (e *Expr) Mul(b interface{}) *Expr { return Mul(e, b) }

// Div chains e / b.
func (e *Expr) Div(b interface{}) *Expr { return Div(e, b) }

// shape walks the expression for the first distributed tensor leaf; nil
// means the expression is fully replicated/constant.
func (e *Expr) shape() *Tensor {
	switch e.kind {
	case leafTensor:
		if !e.t.repl {
			return e.t
		}
		return nil
	case unaryExpr:
		return e.a.shape()
	case binaryExpr:
		if t := e.a.shape(); t != nil {
			return t
		}
		return e.b.shape()
	}
	return nil
}

// anyLeaf returns some tensor leaf to infer the session and replicated shape.
func (e *Expr) anyLeaf() *Tensor {
	switch e.kind {
	case leafTensor:
		return e.t
	case unaryExpr:
		return e.a.anyLeaf()
	case binaryExpr:
		if t := e.a.anyLeaf(); t != nil {
			return t
		}
		return e.b.anyLeaf()
	}
	return nil
}

// validateFor checks that every tensor leaf broadcasts onto dst: distributed
// leaves must share dst's mapping; replicated leaves must be scalars (len 1)
// or match dst's length when dst is replicated.
func (e *Expr) validateFor(dst *Tensor) error {
	switch e.kind {
	case leafTensor:
		lt := e.t
		if lt.repl {
			if lt.n == 1 || (dst.repl && lt.n == dst.n) {
				return nil
			}
			return fmt.Errorf("tensordsl: replicated %q (len %d) does not broadcast onto %q (len %d)",
				lt.Name, lt.n, dst.Name, dst.n)
		}
		if dst.repl {
			return fmt.Errorf("tensordsl: distributed %q cannot materialize into replicated %q", lt.Name, dst.Name)
		}
		if !lt.sameMapping(dst) {
			return fmt.Errorf("tensordsl: %q and %q have different tile mappings", lt.Name, dst.Name)
		}
		return nil
	case unaryExpr:
		return e.a.validateFor(dst)
	case binaryExpr:
		if err := e.a.validateFor(dst); err != nil {
			return err
		}
		return e.b.validateFor(dst)
	}
	return nil
}

// Assign materializes the expression into t, scheduling one fused codelet
// per tile holding data (paper §III-C). Labelled "Elementwise Ops" in the
// profile.
func (t *Tensor) Assign(v interface{}) {
	t.AssignLabeled(v, "Elementwise Ops")
}

// AssignLabeled is Assign with an explicit profiling label (the MPIR driver
// labels its extended-precision updates "Extended-Precision Ops").
func (t *Tensor) AssignLabeled(v interface{}, label string) {
	e := E(v)
	if err := e.validateFor(t); err != nil {
		panic(err)
	}
	evalType := promote(e.dt, t.dt)
	cs := graph.NewComputeSet(t.s.tempName()+":="+t.Name, label)
	cs.NativeKernel = t.nativeAssign(e, evalType)
	// The generated codelet splits its tile-local range across the six
	// worker threads (each vertex is instantiated once per worker on the
	// hardware), so the tile-time is the per-worker share of the work. A
	// kernel that evaluates the expression tree, as the codelets do, computes
	// the values of a billed set; a fused float32 kernel re-associates the
	// normalized sum, so its set stays interpreted.
	workers := uint64(t.s.M.Config().WorkersPerTile)
	cost := func(n int) uint64 {
		return (uint64(n)*(e.perElementCost(evalType)+storeCost(t.dt))+workers-1)/workers + workerStart
	}
	billed := cs.NativeKernel.Kind != graph.KernelAssign
	if t.repl {
		// Replicated results are computed redundantly on every tile (the
		// cheapest consistent policy on a machine without shared memory);
		// functionally the shared buffer is written once.
		c := graph.Fixed(cost(t.n))
		for tile := 0; tile < t.s.M.NumTiles(); tile++ {
			cs.Add(tile, c)
		}
	} else {
		for tile := range t.bufs {
			if t.sizes[tile] == 0 {
				continue
			}
			if billed {
				cs.Add(tile, graph.Fixed(cost(t.sizes[tile])))
				continue
			}
			c, buf, sc := cost(t.sizes[tile]), t.bufs[tile], &evalScratch{}
			cs.Add(tile, graph.CodeletFunc(func() uint64 {
				evalInto(e, tile, evalType, buf, sc)
				return c
			}))
		}
	}
	t.s.Append(graph.Compute{Set: cs})
}

// Temp materializes the expression into a fresh tensor whose mapping is
// inferred: the first distributed leaf's mapping, or a replicated tensor if
// the expression is fully replicated. The tensor's dtype is the expression's
// promoted dtype.
func (s *Session) Temp(v interface{}) *Tensor {
	e := E(v)
	var t *Tensor
	if sh := e.shape(); sh != nil {
		t = s.MustTensor(s.tempName(), e.dt, sh.sizes)
	} else if leaf := e.anyLeaf(); leaf != nil {
		t = s.MustReplicated(s.tempName(), e.dt, leaf.n)
	} else {
		t = s.MustReplicated(s.tempName(), e.dt, 1)
	}
	t.Assign(e)
	return t
}

// workerStart is the fixed worker launch overhead, matching codedsl.
const workerStart = 20

func storeCost(k ipu.Scalar) uint64 { return ipu.Cost(ipu.OpStore, k) }

// perElementCost returns the cycle cost per output element of evaluating the
// expression at evalType: the op costs of interior nodes plus a load per
// tensor leaf (the IPU's dual-issue hides index arithmetic behind FP).
func (e *Expr) perElementCost(evalType ipu.Scalar) uint64 {
	switch e.kind {
	case leafTensor:
		return ipu.Cost(ipu.OpLoad, e.t.dt) + convCost(e.t.dt, evalType)
	case leafConst:
		return 0
	case unaryExpr:
		c := e.a.perElementCost(evalType)
		switch e.op {
		case 'q':
			return c + ipu.Cost(ipu.OpSqrt, evalType)
		default:
			return c + ipu.Cost(ipu.OpCmp, evalType)
		}
	case binaryExpr:
		c := e.a.perElementCost(evalType) + e.b.perElementCost(evalType)
		switch e.op {
		case '+', '-':
			return c + ipu.Cost(ipu.OpAdd, evalType)
		case '*':
			return c + ipu.Cost(ipu.OpMul, evalType)
		default:
			return c + ipu.Cost(ipu.OpDiv, evalType)
		}
	}
	return 0
}

func convCost(from, to ipu.Scalar) uint64 {
	if from == to {
		return 0
	}
	return ipu.Cost(ipu.OpConv, to)
}
