package mat

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randomDense(r *rng.Source, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Uniform(-2, 2)
	}
	return m
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 || m.At(0, 0) != 1 {
		t.Fatalf("bad elements: %v", m.Data)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFromRowsEmpty(t *testing.T) {
	m := FromRows(nil)
	if m.Rows != 0 || m.Cols != 0 {
		t.Fatalf("empty FromRows shape %dx%d", m.Rows, m.Cols)
	}
}

func TestSetRowCol(t *testing.T) {
	m := NewDense(3, 2)
	m.Set(2, 1, 7)
	if m.At(2, 1) != 7 {
		t.Fatal("Set/At mismatch")
	}
	if got := m.Col(1); got[2] != 7 || got[0] != 0 {
		t.Fatalf("Col = %v", got)
	}
	row := m.Row(2)
	row[0] = 9 // aliasing contract
	if m.At(2, 0) != 9 {
		t.Fatal("Row must alias storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("T mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(1)
	m := randomDense(r, 7, 4)
	if !Equalish(m, m.T().T(), 0) {
		t.Fatal("T(T(m)) != m")
	}
}

func TestDotAxpyScale(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if Dot(x, y) != 32 {
		t.Fatalf("Dot = %v", Dot(x, y))
	}
	Axpy(2, x, y)
	want := []float64{6, 9, 12}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v", y)
		}
	}
	Scale(0.5, y)
	if y[0] != 3 || y[2] != 6 {
		t.Fatalf("Scale = %v", y)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if NormInf(x) != 4 {
		t.Fatalf("NormInf = %v", NormInf(x))
	}
	if Norm2(nil) != 0 || NormInf(nil) != 0 {
		t.Fatal("empty norms should be 0")
	}
}

func TestNorm2Overflow(t *testing.T) {
	x := []float64{1e300, 1e300}
	got := Norm2(x)
	want := 1e300 * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("Norm2 overflow-guard failed: %v", got)
	}
}

func TestAddSubTo(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	dst := make([]float64, 2)
	AddTo(dst, a, b)
	if dst[0] != 4 || dst[1] != 7 {
		t.Fatalf("AddTo = %v", dst)
	}
	SubTo(dst, b, a)
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("SubTo = %v", dst)
	}
	// aliasing
	AddTo(a, a, b)
	if a[0] != 4 {
		t.Fatal("AddTo aliasing broken")
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.MulVec(nil, []float64{1, 1})
	want := []float64{3, 7, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec = %v", got)
		}
	}
}

func TestMulVecT(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := m.MulVecT(nil, []float64{1, 1, 1})
	want := []float64{9, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecT = %v", got)
		}
	}
	// must agree with explicit transpose multiply
	r := rng.New(5)
	a := randomDense(r, 9, 5)
	x := make([]float64, 9)
	for i := range x {
		x[i] = r.Norm()
	}
	v1 := a.MulVecT(nil, x)
	v2 := a.T().MulVec(nil, x)
	for i := range v1 {
		if math.Abs(v1[i]-v2[i]) > 1e-12 {
			t.Fatalf("MulVecT disagrees with T().MulVec at %d", i)
		}
	}
}

// naiveMul is the textbook triple-loop product, the oracle for the
// kernels that multiply (MulATA, MulVec, the Cholesky factor).
func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMulATA(t *testing.T) {
	r := rng.New(4)
	a := randomDense(r, 12, 7)
	got := MulATA(a)
	want := naiveMul(a.T(), a)
	if !Equalish(got, want, 1e-9) {
		t.Fatal("MulATA mismatch")
	}
	// symmetry
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			if got.At(i, j) != got.At(j, i) {
				t.Fatal("MulATA not symmetric")
			}
		}
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	// (A*B)*x == A*(B*x) for random small matrices.
	r := rng.New(6)
	f := func(seed uint8) bool {
		rr := rng.New(uint64(seed) + 100)
		a := randomDense(rr, 4, 3)
		b := randomDense(rr, 3, 5)
		x := make([]float64, 5)
		for i := range x {
			x[i] = rr.Norm()
		}
		left := naiveMul(a, b).MulVec(nil, x)
		right := a.MulVec(nil, b.MulVec(nil, x))
		for i := range left {
			if math.Abs(left[i]-right[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestCholeskySolve(t *testing.T) {
	// Build SPD matrix A = MᵀM + I.
	r := rng.New(7)
	m := randomDense(r, 10, 6)
	a := MulATA(m)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	xTrue := []float64{1, -2, 3, 0.5, -1, 2}
	b := a.MulVec(nil, xTrue)
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("SolveSPD x = %v", x)
		}
	}
}

func TestCholeskyFactorProperty(t *testing.T) {
	r := rng.New(8)
	m := randomDense(r, 8, 5)
	a := MulATA(m)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, i, a.At(i, i)+0.5)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Equalish(naiveMul(l, l.T()), a, 1e-9) {
		t.Fatal("L*Lᵀ != A")
	}
	// strictly upper part of L must be zero
	for i := 0; i < l.Rows; i++ {
		for j := i + 1; j < l.Cols; j++ {
			if l.At(i, j) != 0 {
				t.Fatal("L has non-zero above diagonal")
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{0, 0}, {0, -1}})
	if _, err := Cholesky(a); err == nil {
		t.Fatal("Cholesky accepted indefinite matrix")
	}
}

func TestQRSolveExact(t *testing.T) {
	a := FromRows([][]float64{{2, 0}, {0, 3}, {0, 0}})
	b := []float64{4, 9, 0}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestQRLeastSquaresResidualOrthogonality(t *testing.T) {
	// The LS residual must be orthogonal to the column space of A.
	r := rng.New(9)
	a := randomDense(r, 20, 5)
	b := make([]float64, 20)
	for i := range b {
		b[i] = r.Norm()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax := a.MulVec(nil, x)
	res := make([]float64, len(b))
	SubTo(res, b, ax)
	proj := a.MulVecT(nil, res)
	if NormInf(proj) > 1e-9 {
		t.Fatalf("Aᵀr = %v not ~0", proj)
	}
}

func TestQRMatchesNormalEquations(t *testing.T) {
	r := rng.New(10)
	a := randomDense(r, 30, 6)
	b := make([]float64, 30)
	for i := range b {
		b[i] = r.Norm()
	}
	xQR, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	gram := MulATA(a)
	atb := a.MulVecT(nil, b)
	xNE, err := SolveSPD(gram, atb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xQR {
		if math.Abs(xQR[i]-xNE[i]) > 1e-7 {
			t.Fatalf("QR %v vs normal equations %v", xQR, xNE)
		}
	}
}

func TestQRSingularDetection(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); err == nil {
		t.Fatal("rank-deficient LS did not error")
	}
}

func TestEqualishShapes(t *testing.T) {
	if Equalish(NewDense(2, 2), NewDense(2, 3), 1) {
		t.Fatal("Equalish ignored shape mismatch")
	}
}

func BenchmarkMulATA(b *testing.B) {
	r := rng.New(1)
	x := randomDense(r, 512, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulATA(x)
	}
}

func BenchmarkCholesky64(b *testing.B) {
	r := rng.New(1)
	m := randomDense(r, 128, 64)
	a := MulATA(m)
	for i := 0; i < a.Rows; i++ {
		a.Set(i, i, a.At(i, i)+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}
