// Package twofloat implements double-word arithmetic on float32 pairs.
//
// A double-word number represents a value as the unevaluated sum of two
// floating-point numbers Hi + Lo with |Lo| <= ulp(Hi)/2. The Hi part can be
// seen as the rounded value and the Lo part as the rounding error. This
// roughly doubles the significand precision of the underlying type (here
// float32: from ~7.2 to ~13.3-14.0 decimal digits) without extending its
// exponent range.
//
// The package is a reimplementation of the TWOFLOAT C++ library referenced by
// the paper. It provides two arithmetic families:
//
//   - The accurate algorithms by Joldes, Muller and Popescu ("Tight and
//     rigorous error bounds for basic building blocks of double-word
//     arithmetic", ACM TOMS 44(2), 2017). These renormalize after every step
//     and carry proven relative error bounds (about 2^-44 for float32 pairs).
//   - The faster algorithms in the style of Lange and Rump ("Faithfully
//     rounded floating-point computations", ACM TOMS 46(3), 2020), which omit
//     intermediate normalization steps and trade a few bits of accuracy for
//     fewer operations.
//
// The paper's MPIR solver uses the Joldes family because numerical stability
// of the extended-precision residual dominates overall solver behaviour; the
// Lange-Rump family is kept for the corresponding ablation benchmark.
//
// All building blocks are error-free transforms: TwoSum and Fast2Sum for
// addition, and an FMA-based TwoProd for multiplication (the Mk2 IPU has a
// fused f32 multiply-add; on the host we emulate that single rounding with
// float64 intermediates, and a Dekker-split variant is provided as a pure
// float32 cross-check).
//
// Add, Mul and MulFloat exceed Go's inlining budget, and a call per element
// costs more than the arithmetic, so hot loops over double-word arrays (the
// MPIR residual in package solver, the double-word dot partial in package
// tensordsl) spell them out in the inlinable steps TwoProd, TwoSum and
// Fast2Sum plus math.FMA for fmaf. They keep this package's operations,
// operand order and explicit conversions step for step, so they leave its
// bits, and this package stays their oracle in the kernel property tests.
// NaN results are the exception: which of two NaN operands an add keeps
// follows the operand order the compiler picked for that copy of the code,
// so those loops recompute a NaN result with this package's functions.
package twofloat

import "math"

// DW is a double-word float32 value, the unevaluated sum Hi + Lo.
// A DW is normalized when Hi == RN(Hi+Lo), i.e. |Lo| <= ulp(Hi)/2.
// The zero value represents 0.
type DW struct {
	Hi float32
	Lo float32
}

// FromFloat32 returns the double-word representation of a single float32.
func FromFloat32(x float32) DW { return DW{Hi: x} }

// FromFloat64 returns the double-word value closest to the float64 x:
// Hi is x rounded to float32 and Lo is the remaining error rounded to float32.
func FromFloat64(x float64) DW {
	hi := float32(x)
	lo := float32(x - float64(hi))
	return DW{Hi: hi, Lo: lo}
}

// Float64 returns the value of d as a float64. The conversion is exact:
// both components are exactly representable in float64 and their sum has at
// most 48 significand bits.
func (d DW) Float64() float64 { return float64(d.Hi) + float64(d.Lo) }

// Float32 rounds d to the nearest float32. For normalized values this is Hi.
func (d DW) Float32() float32 { return float32(d.Float64()) }

// IsZero reports whether d represents exactly zero.
func (d DW) IsZero() bool { return d.Hi == 0 && d.Lo == 0 }

// Neg returns -d.
func (d DW) Neg() DW { return DW{Hi: -d.Hi, Lo: -d.Lo} }

// Abs returns |d|.
func (d DW) Abs() DW {
	if d.Hi < 0 || (d.Hi == 0 && d.Lo < 0) {
		return d.Neg()
	}
	return d
}

// Cmp compares d and e, returning -1, 0 or +1.
func (d DW) Cmp(e DW) int {
	a, b := d.Float64(), e.Float64()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// TwoSum is Knuth's error-free transform: s = RN(a+b) and e is the exact
// rounding error, so a + b == s + e. 6 flops, no branch.
func TwoSum(a, b float32) (s, e float32) {
	s = a + b
	bb := s - a
	e = (a - (s - bb)) + (b - bb)
	return s, e
}

// Fast2Sum is Dekker's error-free transform. It requires |a| >= |b| (or
// a == 0); then s = RN(a+b) and a + b == s + e. 3 flops.
func Fast2Sum(a, b float32) (s, e float32) {
	s = a + b
	e = b - (s - a)
	return s, e
}

// TwoProd is the error-free product: p = RN(a*b) and a*b == p + e exactly
// (barring spurious overflow/underflow). It models the IPU's fused
// multiply-add: e = fma(a, b, -p). On the host the FMA is emulated with a
// float64 intermediate, which is exact because a float32 product has at most
// 48 significand bits. The explicit conversion rounds p, so that no compiler
// fuses the product into the caller's next add (Go may, on arm64).
func TwoProd(a, b float32) (p, e float32) {
	p = float32(a * b)
	e = float32(float64(a)*float64(b) - float64(p))
	return p, e
}

const splitter = 4097 // 2^12 + 1 for float32 (24-bit significand)

// Split is Dekker's splitting of a float32 into a 12-bit high part and a
// 12-bit low part with x == hi + lo exactly.
func Split(x float32) (hi, lo float32) {
	c := splitter * x
	hi = c - (c - x)
	lo = x - hi
	return hi, lo
}

// TwoProdDekker is the FMA-free error-free product using Dekker splitting.
// It is exact for the same inputs as TwoProd and exists as a pure-float32
// cross-check of the FMA emulation. 17 flops.
func TwoProdDekker(a, b float32) (p, e float32) {
	p = a * b
	ahi, alo := Split(a)
	bhi, blo := Split(b)
	e = ((ahi*bhi - p) + ahi*blo + alo*bhi) + alo*blo
	return p, e
}

// normalize renormalizes a (hi, lo) pair so that the result is a valid DW.
// The pair must satisfy |lo| not much larger than ulp(hi).
func normalize(hi, lo float32) DW {
	s, e := Fast2Sum(hi, lo)
	return DW{Hi: s, Lo: e}
}

// Add returns RN-accurate d + e using the Joldes et al. AccurateDWPlusDW
// algorithm (their Algorithm 6). Relative error bounded by 3u^2/(1-4u) with
// u = 2^-24. 20 flops.
func Add(d, e DW) DW {
	sh, sl := TwoSum(d.Hi, e.Hi)
	th, tl := TwoSum(d.Lo, e.Lo)
	c := sl + th
	vh, vl := Fast2Sum(sh, c)
	w := tl + vl
	return normalize(vh, w)
}

// Sub returns d - e with the same error bound as Add.
func Sub(d, e DW) DW { return Add(d, e.Neg()) }

// AddFloat returns d + x (x a single float32) using the Joldes et al.
// DWPlusFP algorithm (their Algorithm 4). The result error is at most 2u^2.
// 10 flops.
func AddFloat(d DW, x float32) DW {
	sh, sl := TwoSum(d.Hi, x)
	v := d.Lo + sl
	return normalize(sh, v)
}

// Mul returns d * e using the Joldes et al. DWTimesDW algorithm with FMA
// (their Algorithm 12). Relative error below 5u^2. 9 flops + 1 EFT.
func Mul(d, e DW) DW {
	ch, cl1 := TwoProd(d.Hi, e.Hi)
	tl := d.Hi * e.Lo
	cl2 := fmaf(d.Lo, e.Hi, tl)
	cl3 := cl1 + cl2
	return normalize(ch, cl3)
}

// MulFloat returns d * x using the Joldes et al. DWTimesFP algorithm
// (their Algorithm 9). Relative error below 2u^2. 6 flops + 1 EFT.
func MulFloat(d DW, x float32) DW {
	ch, cl1 := TwoProd(d.Hi, x)
	cl3 := fmaf(d.Lo, x, cl1)
	return normalize(ch, cl3)
}

// Div returns d / e using the Joldes et al. DWDivDW algorithm with FMA
// (their Algorithm 17). Relative error below 9.8u^2. ~30 flops.
func Div(d, e DW) DW {
	th := 1 / e.Hi
	rh := fmaf(-e.Hi, th, 1)
	rl := -e.Lo * th
	eh, el := Fast2Sum(rh, rl)
	dd := mulF(DW{eh, el}, th)
	m := AddFloat(dd, th)
	return Mul(d, m)
}

// DivFloat returns d / x using the Joldes et al. DWDivFP algorithm
// (their Algorithm 15). Relative error below 3.5u^2.
func DivFloat(d DW, x float32) DW {
	th := d.Hi / x
	ph, pl := TwoProd(th, x)
	dh := d.Hi - ph
	dt := dh - pl
	dd := dt + d.Lo
	tl := dd / x
	return normalize(th, tl)
}

// mulF multiplies a DW by a float32 without the final renormalization,
// used internally by Div.
func mulF(d DW, x float32) DW {
	ch, cl1 := TwoProd(d.Hi, x)
	cl3 := fmaf(d.Lo, x, cl1)
	return DW{ch, cl3}
}

// Sqrt returns the square root of d using one Newton refinement of the
// float32 square root in double-word arithmetic. Accuracy is a few u^2.
func Sqrt(d DW) DW {
	if d.Hi == 0 {
		return DW{}
	}
	s := float32(math.Sqrt(float64(d.Hi)))
	// r = d - s*s, computed exactly.
	p, e := TwoProd(s, s)
	r := Add(d, DW{-p, -e})
	// correction r / (2s)
	c := DivFloat(r, 2*s)
	return AddFloat(c, s)
}

// fmaf is a float32 fused multiply-add a*b + c with a single rounding,
// modeling the IPU's f32 FMA instruction. The float64 intermediate is exact
// for the product; the final float64 add can suffer double rounding only in
// ties below 2^-48 relative, which is far below the DW error bounds.
func fmaf(a, b, c float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(c)))
}

// --- Lange & Rump style fast arithmetic -------------------------------------
//
// These variants omit intermediate normalization, as in the faithfully
// rounded computations of Lange and Rump. They need 7 to 25 flops instead of
// 20 to 34 and lose one to two bits versus the Joldes family; the error can
// grow across consecutive operations, which is why the MPIR solver defaults
// to the accurate family.

// AddFast is the "sloppy" double-word addition (7 flops). Its error is only
// bounded when the operands have the same sign; for cancellation-prone sums
// use Add.
func AddFast(d, e DW) DW {
	sh, sl := TwoSum(d.Hi, e.Hi)
	v := d.Lo + e.Lo
	w := sl + v
	return normalize(sh, w)
}

// SubFast is AddFast with the second operand negated.
func SubFast(d, e DW) DW { return AddFast(d, e.Neg()) }

// MulFast multiplies without accumulating the low-order cross term
// (Joldes Algorithm 11 / Lange-Rump style, 7 flops + 1 EFT).
func MulFast(d, e DW) DW {
	ch, cl1 := TwoProd(d.Hi, e.Hi)
	tl0 := d.Lo * e.Lo
	tl1 := fmaf(d.Hi, e.Lo, tl0)
	cl2 := fmaf(d.Lo, e.Hi, tl1)
	cl3 := cl1 + cl2
	return normalize(ch, cl3)
}

// DivFast divides with a single reciprocal refinement (Joldes Algorithm 18
// style without the extra normalization).
func DivFast(d, e DW) DW {
	th := d.Hi / e.Hi
	rh, rl := mulDWfloatNoNorm(e, th)
	ph, pl := TwoSum(d.Hi, -rh)
	dl := (d.Lo - rl) + pl
	dd := ph + dl
	tl := dd / e.Hi
	return normalize(th, tl)
}

func mulDWfloatNoNorm(d DW, x float32) (h, l float32) {
	ch, cl1 := TwoProd(d.Hi, x)
	cl3 := fmaf(d.Lo, x, cl1)
	return ch, cl3
}

// --- compile-time style constants -------------------------------------------
//
// The TWOFLOAT C++ library computes these during compilation; in Go they are
// package-level constants derived from exact float64 decompositions.

var (
	// Pi is the double-word representation of the mathematical constant pi.
	Pi = FromFloat64(math.Pi)
	// E is the double-word representation of Euler's number.
	E = FromFloat64(math.E)
	// Ln2 is the double-word representation of ln(2).
	Ln2 = FromFloat64(math.Ln2)
	// Sqrt2 is the double-word representation of sqrt(2).
	Sqrt2 = FromFloat64(math.Sqrt2)
)

// Eps is the unit roundoff u = 2^-24 of the underlying float32 format.
const Eps = 1.0 / (1 << 24)

// EpsDW is the approximate relative accuracy 2^-44 of Joldes-family
// double-word operations (the bound for addition is 3u^2).
const EpsDW = 3.0 / (1 << 24) / (1 << 24)
