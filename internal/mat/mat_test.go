package mat

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// The helpers below are the matrix and vector operations only these tests
// use: no package computes with them, so they live here, beside the tests
// that build and compare matrices with them and pin their arithmetic.

// fromSlice builds a rows x cols matrix that copies data (len must equal
// rows*cols).
func fromSlice(rows, cols int, data []float64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("mat: fromSlice: have %d values, need %d (%dx%d)", len(data), rows*cols, rows, cols)
	}
	m := New(rows, cols)
	copy(m.Data, data)
	return m, nil
}

// add returns a+b.
func add(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("mat: add: %dx%d + %dx%d dimension mismatch", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out, nil
}

// sub returns a-b.
func sub(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("mat: sub: %dx%d - %dx%d dimension mismatch", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out, nil
}

// equal reports whether a and b have the same shape and elements within tol.
func equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// axpyInto computes dst = a*x + y element-wise.
func axpyInto(dst []float64, a float64, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic(fmt.Sprintf("mat: axpyInto: len %d/%d/%d", len(dst), len(x), len(y)))
	}
	for i := range dst {
		dst[i] = a*x[i] + y[i]
	}
}

// vecAdd returns a+b as a new slice.
func vecAdd(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: vecAdd: len %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// vecSub returns a-b as a new slice.
func vecSub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: vecSub: len %d vs %d", len(a), len(b)))
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// vecScale returns s*a as a new slice.
func vecScale(s float64, a []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = s * a[i]
	}
	return out
}

// norm2 returns the Euclidean norm of a.
func norm2(a []float64) float64 {
	return math.Sqrt(Dot(a, a))
}

// stddev returns the population standard deviation of a.
func stddev(a []float64) float64 {
	return math.Sqrt(Variance(a))
}

// minVal returns the minimum element (+Inf for empty input).
func minVal(a []float64) float64 {
	m := math.Inf(1)
	for _, v := range a {
		if v < m {
			m = v
		}
	}
	return m
}

// clamp limits v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestFromSliceErrors(t *testing.T) {
	if _, err := fromSlice(2, 2, []float64{1, 2, 3}); err == nil {
		t.Fatal("FromSlice with short data: want error")
	}
	m, err := fromSlice(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 2 || m.At(2, 1) != 6 {
		t.Fatalf("unexpected matrix %v", m)
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Fatal("ragged rows: want error")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Fatalf("FromRows(nil) = %v, %v", empty, err)
	}
}

func TestIdentityMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	id := Identity(3)
	got, err := Mul(a, id)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(a, got, 0) {
		t.Fatalf("a*I = %v, want %v", got, a)
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !equal(want, got, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := Mul(a, b); err == nil {
		t.Fatal("Mul 2x3 * 2x3: want error")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	got, err := m.MulVec([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[1] != 6 {
		t.Fatalf("MulVec = %v, want [7 6]", got)
	}
	if _, err := m.MulVec([]float64{1}); err == nil {
		t.Fatal("MulVec short vector: want error")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(vals [6]float64) bool {
		m, _ := fromSlice(2, 3, vals[:])
		return equal(m, m.T().T(), 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulTransposeProperty(t *testing.T) {
	// (A*B)^T == B^T * A^T
	f := func(av, bv [4]float64) bool {
		a, _ := fromSlice(2, 2, av[:])
		b, _ := fromSlice(2, 2, bv[:])
		ab, err := Mul(a, b)
		if err != nil {
			return false
		}
		btat, err := Mul(b.T(), a.T())
		if err != nil {
			return false
		}
		return equal(ab.T(), btat, 1e-9*(1+ab.Frobenius()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSub(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}})
	b, _ := FromRows([][]float64{{10, 20}})
	sum, err := add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sum.At(0, 0) != 11 || sum.At(0, 1) != 22 {
		t.Fatalf("Add = %v", sum)
	}
	diff, err := sub(sum, b)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(diff, a, 0) {
		t.Fatalf("Sub = %v, want %v", diff, a)
	}
	if _, err := add(a, New(2, 2)); err == nil {
		t.Fatal("Add mismatched shapes: want error")
	}
	if _, err := sub(a, New(2, 2)); err == nil {
		t.Fatal("Sub mismatched shapes: want error")
	}
}

func TestScaleApply(t *testing.T) {
	m, _ := FromRows([][]float64{{1, -2}})
	m.Scale(2).Apply(math.Abs)
	if m.At(0, 0) != 2 || m.At(0, 1) != 4 {
		t.Fatalf("Scale+Apply = %v", m)
	}
}

func TestRowColViews(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(1)
	r[0] = 99 // copy: must not affect m
	if m.At(1, 0) != 3 {
		t.Fatal("Row returned a view, want copy")
	}
	rv := m.RowView(1)
	rv[0] = 99 // view: must affect m
	if m.At(1, 0) != 99 {
		t.Fatal("RowView returned a copy, want view")
	}
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col = %v", c)
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestPanicsOnBadIndex(t *testing.T) {
	m := New(2, 2)
	for _, f := range []func(){
		func() { m.At(2, 0) },
		func() { m.Set(0, -1, 1) },
		func() { m.Row(5) },
		func() { m.Col(5) },
		func() { m.RowView(-1) },
		func() { New(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			f()
		}()
	}
}

func TestFrobenius(t *testing.T) {
	m, _ := FromRows([][]float64{{3, 4}})
	if got := m.Frobenius(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Frobenius = %v, want 5", got)
	}
}

func TestString(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	if s := m.String(); s != "mat(2x2)[1 2; 3 4]" {
		t.Fatalf("String = %q", s)
	}
}

func TestDotAndNorms(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if norm2([]float64{3, 4}) != 5 {
		t.Fatal("Norm2 wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Dot mismatched lengths: want panic")
			}
		}()
		Dot([]float64{1}, []float64{1, 2})
	}()
}

func TestVecOps(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := vecAdd(a, b); got[0] != 4 || got[1] != 7 {
		t.Fatalf("VecAdd = %v", got)
	}
	if got := vecSub(b, a); got[0] != 2 || got[1] != 3 {
		t.Fatalf("VecSub = %v", got)
	}
	if got := vecScale(2, a); got[0] != 2 || got[1] != 4 {
		t.Fatalf("VecScale = %v", got)
	}
	dst := make([]float64, 2)
	axpyInto(dst, 2, a, b)
	if dst[0] != 5 || dst[1] != 9 {
		t.Fatalf("AxpyInto = %v", dst)
	}
}

func TestStats(t *testing.T) {
	a := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(a) != 5 {
		t.Fatalf("Mean = %v", Mean(a))
	}
	if Variance(a) != 4 {
		t.Fatalf("Variance = %v", Variance(a))
	}
	if stddev(a) != 2 {
		t.Fatalf("Stddev = %v", stddev(a))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty-input stats should be 0")
	}
}

func TestArgMaxMinMax(t *testing.T) {
	a := []float64{1, 5, 5, 2}
	if ArgMax(a) != 1 {
		t.Fatalf("ArgMax = %d, want 1 (ties to lowest index)", ArgMax(a))
	}
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax(nil) != -1")
	}
	if MaxVal(a) != 5 || minVal(a) != 1 {
		t.Fatal("MaxVal/MinVal wrong")
	}
	if !math.IsInf(MaxVal(nil), -1) || !math.IsInf(minVal(nil), 1) {
		t.Fatal("empty MaxVal/MinVal should be infinities")
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 0, 1) != 1 || clamp(-5, 0, 1) != 0 || clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

func TestMeanVarianceProperty(t *testing.T) {
	// Variance is translation invariant.
	f := func(vals [8]float64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		// keep magnitudes sane to avoid float cancellation false alarms
		shift = math.Mod(shift, 1000)
		a := make([]float64, len(vals))
		b := make([]float64, len(vals))
		for i, v := range vals {
			v = math.Mod(v, 1000)
			if math.IsNaN(v) {
				v = 0
			}
			a[i] = v
			b[i] = v + shift
		}
		return math.Abs(Variance(a)-Variance(b)) < 1e-6*(1+math.Abs(Variance(a)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
