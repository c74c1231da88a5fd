// Package tensor provides the small set of dense float32 linear-algebra
// kernels needed by the transformer substrate: row-major matrices, matrix
// multiplication, softmax, RMS normalisation and activation functions.
//
// The package is deliberately minimal — it is a substrate for a scaled-down
// but real transformer, not a general numerics library. All operations are
// deterministic; random initialisation takes an explicit seed.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float32 matrix.
//
// The zero value is an empty matrix. Use New or NewFrom to construct one
// with a defined shape.
type Matrix struct {
	Rows int
	Cols int
	Data []float32
}

// New returns a zero-filled rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewFrom wraps data as a rows×cols matrix without copying.
// len(data) must equal rows*cols.
func NewFrom(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: copy shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatMul returns a×b. a is n×k, b is k×m, result is n×m.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes a×b into dst, which must be a.Rows × b.Cols. It is
// the one projection kernel of the transformer substrate: a layer runs all
// of its selected token rows through it as one batch.
//
// The shared dimension k is the outer loop, so every output element
// dst[i][j] sums its products a[i][k]·b[k][j] in ascending-k order — the
// order of a row-at-a-time ikj loop — and batching rows cannot change a
// result. Two kinds of work with an exact zero are skipped, both derived
// on each call so b stays a plain mutable matrix: every k that no row of a
// reads (a zero column of the activations), and, within each row of b,
// everything outside its first-to-last-nonzero span. A skipped product is
// ±0, and adding ±0 to a sum that starts at +0 never changes it, so for
// finite inputs the result is bit-identical to the dense loop. Only a
// non-finite value meeting an exact zero (Inf·0 = NaN) could differ.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch dst %dx%d = %dx%d × %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Zero()
	n, inner, cols := a.Rows, a.Cols, b.Cols
	for k := 0; k < inner; k++ {
		first := 0
		for first < n && a.Data[first*inner+k] == 0 {
			first++
		}
		if first == n {
			continue // no row reads k
		}
		brow := b.Data[k*cols : (k+1)*cols]
		lo, hi := 0, cols
		for lo < hi && brow[lo] == 0 {
			lo++
		}
		for hi > lo && brow[hi-1] == 0 {
			hi--
		}
		if lo == hi {
			continue
		}
		brow = brow[lo:hi]
		for i := first; i < n; i++ {
			av := a.Data[i*inner+k]
			if av == 0 {
				continue
			}
			drow := dst.Data[i*cols+lo : i*cols+hi]
			drow = drow[:len(brow)]
			j := 0
			for ; j+4 <= len(brow); j += 4 {
				dq, bq := drow[j:j+4:j+4], brow[j:j+4:j+4]
				dq[0] += av * bq[0]
				dq[1] += av * bq[1]
				dq[2] += av * bq[2]
				dq[3] += av * bq[3]
			}
			for ; j < len(brow); j++ {
				drow[j] += av * brow[j]
			}
		}
	}
}

// MatVec returns a×x where x is treated as a column vector of length a.Cols.
func MatVec(a *Matrix, x []float32) []float32 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("tensor: matvec shape mismatch %dx%d × %d", a.Rows, a.Cols, len(x)))
	}
	return MatMul(a, NewFrom(len(x), 1, x)).Data
}

// VecMat returns xᵀ×a where x has length a.Rows; the result has length a.Cols.
func VecMat(x []float32, a *Matrix) []float32 {
	if a.Rows != len(x) {
		panic(fmt.Sprintf("tensor: vecmat shape mismatch %d × %dx%d", len(x), a.Rows, a.Cols))
	}
	return MatMul(NewFrom(1, len(x), x), a).Data
}

// Dot returns the inner product of a and b, which must have equal length.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Dot4 returns the inner products of a with each of b0..b3, which must
// all have len(a) elements. It is the attention scorer: four keys per pass
// over the query, with four independent accumulators, each summing in
// index order, so every result equals Dot(a, bi) bit for bit.
func Dot4(a, b0, b1, b2, b3 []float32) (s0, s1, s2, s3 float32) {
	n := len(a)
	if len(b0) != n || len(b1) != n || len(b2) != n || len(b3) != n {
		panic(fmt.Sprintf("tensor: dot4 length mismatch %d vs %d/%d/%d/%d", n, len(b0), len(b1), len(b2), len(b3)))
	}
	for i, av := range a {
		s0 += av * b0[i]
		s1 += av * b1[i]
		s2 += av * b2[i]
		s3 += av * b3[i]
	}
	return
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// AXPY4 computes y += a0*x0, then y += a1*x1, a2*x2 and a3*x3, in place,
// in one pass over y. Each element takes the four updates in that order,
// so the result equals four successive AXPY calls bit for bit.
func AXPY4(a0, a1, a2, a3 float32, x0, x1, x2, x3, y []float32) {
	n := len(y)
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic(fmt.Sprintf("tensor: axpy4 length mismatch %d vs %d/%d/%d/%d", n, len(x0), len(x1), len(x2), len(x3)))
	}
	for i, v := range y {
		v += a0 * x0[i]
		v += a1 * x1[i]
		v += a2 * x2[i]
		v += a3 * x3[i]
		y[i] = v
	}
}

// Add computes dst[i] += src[i] element-wise.
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: add length mismatch %d vs %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(x []float32, alpha float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Softmax normalises x in place into a probability distribution using the
// numerically stable max-subtraction form.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	maxv := x[0]
	for _, v := range x[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxv))
		x[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range x {
		x[i] *= inv
	}
}

// RMSNorm applies root-mean-square layer normalisation with elementwise gain:
// out[i] = x[i] / rms(x) * gain[i]. If gain is nil a gain of 1 is used.
func RMSNorm(out, x, gain []float32, eps float32) {
	if len(out) != len(x) || (gain != nil && len(gain) != len(x)) {
		panic("tensor: rmsnorm length mismatch")
	}
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := float32(1.0 / math.Sqrt(ss/float64(len(x))+float64(eps)))
	if gain == nil {
		for i, v := range x {
			out[i] = v * inv
		}
		return
	}
	for i, v := range x {
		out[i] = v * inv * gain[i]
	}
}

// SiLU applies the sigmoid-linear unit x*sigmoid(x) element-wise in place.
func SiLU(x []float32) {
	for i, v := range x {
		x[i] = v / (1 + float32(math.Exp(float64(-v))))
	}
}

// Argmax returns the index of the largest element of x, or -1 if x is empty.
// Ties break toward the lower index, keeping decode deterministic.
func Argmax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// L2 returns the Euclidean norm of x.
func L2(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// L2Diff returns the Euclidean norm of (a-b).
func L2Diff(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: l2diff length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns the largest absolute element-wise difference between a
// and b.
func MaxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: maxabsdiff length mismatch %d vs %d", len(a), len(b)))
	}
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}
