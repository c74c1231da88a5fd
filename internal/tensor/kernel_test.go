package tensor

import (
	"encoding/binary"
	"math"
	"testing"
)

// naiveMatMul is the dense ikj reference: every product, zero or not,
// added in ascending-k order.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
		}
	}
	return out
}

// firstBitDiff returns the first index where x and y hold different float
// bits (any two NaNs count as equal), or -1 if they are identical.
func firstBitDiff(x, y []float32) int {
	if len(x) != len(y) {
		return 0
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) && !(x[i] != x[i] && y[i] != y[i]) {
			return i
		}
	}
	return -1
}

// sparseNormal fills a rows×cols matrix with normal values, keeping each
// one with probability density and zeroing the listed rows and columns.
func sparseNormal(g *RNG, rows, cols int, density float64, zeroRows, zeroCols []int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if g.Float64() < density {
			m.Data[i] = g.Normal(0, 1)
		}
	}
	for _, r := range zeroRows {
		for j := 0; j < cols; j++ {
			m.Set(r, j, 0)
		}
	}
	for _, c := range zeroCols {
		for i := 0; i < rows; i++ {
			m.Set(i, c, 0)
		}
	}
	return m
}

func TestMatMulIntoMatchesNaiveBitwise(t *testing.T) {
	cases := []struct {
		name              string
		n, k, m           int
		densA, densB      float64
		zeroRowsA, zeroCA []int
		zeroRowsB, zeroCB []int
	}{
		{name: "dense", n: 9, k: 16, m: 12, densA: 1, densB: 1},
		{name: "dense-wide", n: 3, k: 40, m: 160, densA: 1, densB: 1},
		{name: "99pct-sparse", n: 20, k: 160, m: 160, densA: 0.3, densB: 0.01},
		{name: "both-sparse", n: 16, k: 64, m: 64, densA: 0.05, densB: 0.05},
		{name: "zero-rows-and-cols", n: 8, k: 12, m: 10, densA: 1, densB: 1,
			zeroRowsA: []int{0, 5}, zeroCA: []int{1, 2, 11}, zeroRowsB: []int{3, 4, 7}, zeroCB: []int{0, 9}},
		{name: "weight-span-edges", n: 5, k: 8, m: 13, densA: 1, densB: 1, zeroCB: []int{0, 1, 2, 11, 12}},
		{name: "width-1", n: 4, k: 6, m: 1, densA: 1, densB: 1},
		{name: "width-3", n: 4, k: 6, m: 3, densA: 1, densB: 0.7},
		{name: "width-5", n: 7, k: 5, m: 5, densA: 0.8, densB: 1},
		{name: "width-7", n: 2, k: 9, m: 7, densA: 1, densB: 0.5},
		{name: "all-zero-activations", n: 4, k: 8, m: 8, densA: 0, densB: 1},
		{name: "all-zero-weights", n: 4, k: 8, m: 8, densA: 1, densB: 0},
		{name: "no-rows", n: 0, k: 8, m: 8, densA: 1, densB: 1},
		{name: "no-inner", n: 3, k: 0, m: 4, densA: 1, densB: 1},
	}
	for ci, c := range cases {
		g := NewRNG(int64(100 + ci))
		a := sparseNormal(g, c.n, c.k, c.densA, c.zeroRowsA, c.zeroCA)
		b := sparseNormal(g, c.k, c.m, c.densB, c.zeroRowsB, c.zeroCB)
		want := naiveMatMul(a, b)
		got := New(c.n, c.m)
		for i := range got.Data {
			got.Data[i] = 42 // MatMulInto must overwrite, not accumulate
		}
		MatMulInto(got, a, b)
		if i := firstBitDiff(got.Data, want.Data); i >= 0 {
			t.Errorf("%s: element %d = %v, naive %v", c.name, i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulIntoSignedZeros(t *testing.T) {
	// Skipped products with -0 operands must leave +0 sums and nonzero
	// sums exactly as the naive loop does.
	negZero := float32(math.Copysign(0, -1))
	a := NewFrom(2, 3, []float32{negZero, 1, -2, 3, negZero, 0})
	b := NewFrom(3, 3, []float32{5, negZero, 1, negZero, negZero, 0, 0, 4, negZero})
	got := New(2, 3)
	MatMulInto(got, a, b)
	if i := firstBitDiff(got.Data, naiveMatMul(a, b).Data); i >= 0 {
		t.Fatalf("element %d differs: %v", i, got.Data)
	}
}

func TestDot4MatchesDot(t *testing.T) {
	g := NewRNG(7)
	for _, n := range []int{0, 1, 3, 4, 5, 16, 40, 41} {
		vec := func() []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = g.Normal(0, 3)
			}
			return v
		}
		a, b0, b1, b2, b3 := vec(), vec(), vec(), vec(), vec()
		s0, s1, s2, s3 := Dot4(a, b0, b1, b2, b3)
		got := []float32{s0, s1, s2, s3}
		want := []float32{Dot(a, b0), Dot(a, b1), Dot(a, b2), Dot(a, b3)}
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("n=%d: score %d = %v, Dot %v", n, i, got[i], want[i])
		}
	}
}

func TestAXPY4MatchesAXPY(t *testing.T) {
	g := NewRNG(8)
	for _, n := range []int{0, 1, 7, 16, 40} {
		vec := func() []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = g.Normal(0, 2)
			}
			return v
		}
		x0, x1, x2, x3, y := vec(), vec(), vec(), vec(), vec()
		w := []float32{g.Normal(0, 1), 1e-41, g.Normal(0, 1), -3}
		want := append([]float32(nil), y...)
		for i, x := range [][]float32{x0, x1, x2, x3} {
			AXPY(w[i], x, want)
		}
		AXPY4(w[0], w[1], w[2], w[3], x0, x1, x2, x3, y)
		if i := firstBitDiff(y, want); i >= 0 {
			t.Fatalf("n=%d: element %d = %v, AXPY %v", n, i, y[i], want[i])
		}
	}
}

func TestDot4LengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot4(make([]float32, 3), make([]float32, 3), make([]float32, 3), make([]float32, 2), make([]float32, 3))
}

// FuzzMatMulInto checks MatMulInto bitwise against the naive loop on
// arbitrary shapes and finite values, zeros and signed zeros included.
func FuzzMatMulInto(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(5), []byte{})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{0, 0, 128, 63, 0, 0, 0, 128})
	f.Add(uint8(0), uint8(6), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(5), uint8(7), uint8(9), []byte{0, 0, 0, 0, 0, 0, 64, 64, 0, 0, 0, 0, 255, 255, 127, 127})
	f.Fuzz(func(t *testing.T, n, k, m uint8, data []byte) {
		rows, inner, cols := int(n%9), int(k%13), int(m%11)
		next := 0
		fill := func(x *Matrix) {
			for i := range x.Data {
				if next+4 > len(data) {
					return
				}
				v := math.Float32frombits(binary.LittleEndian.Uint32(data[next:]))
				next += 4
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					v = 0
				}
				x.Data[i] = v
			}
		}
		a, b := New(rows, inner), New(inner, cols)
		fill(a)
		fill(b)
		got := New(rows, cols)
		MatMulInto(got, a, b)
		if i := firstBitDiff(got.Data, naiveMatMul(a, b).Data); i >= 0 {
			t.Fatalf("%dx%d × %dx%d: element %d = %v, naive %v", rows, inner, inner, cols, i, got.Data[i], naiveMatMul(a, b).Data[i])
		}
	})
}
