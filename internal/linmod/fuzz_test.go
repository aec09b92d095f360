package linmod

import (
	"math"
	"testing"

	"repro/internal/mat"
)

// fuzzProblem decodes a small multitask lasso problem from bytes: n =
// 1+data[0]%12 rows, p = 1+data[1]%6 features, T = 1+data[2]%4 tasks,
// lambda = (data[3]+1)/200 of MultiTaskLambdaMax, then X (n×p) and Y (n×T) row by
// row, one byte per value as int8/16 (zero once the bytes run out). The
// values are exact binary fractions, so the fuzzer can build exactly
// collinear and constant columns.
func fuzzProblem(data []byte) (x, y *mat.Dense, frac float64, ok bool) {
	if len(data) < 4 {
		return nil, nil, 0, false
	}
	n, p, tasks := 1+int(data[0])%12, 1+int(data[1])%6, 1+int(data[2])%4
	frac = float64(int(data[3])+1) / 200
	vals := data[4:]
	next := func() float64 {
		if len(vals) == 0 {
			return 0
		}
		v := float64(int8(vals[0])) / 16
		vals = vals[1:]
		return v
	}
	x, y = mat.NewDense(n, p), mat.NewDense(n, tasks)
	for i := range x.Data {
		x.Data[i] = next()
	}
	for i := range y.Data {
		y.Data[i] = next()
	}
	return x, y, frac, true
}

// FuzzMultiTaskLasso holds the path solver to three properties on every
// decodable problem: its model is finite; it certifies a relative
// duality gap of at most Tol within MaxIter iterations; and its
// objective is no higher than the cold-start coordinate-descent
// oracle's at the same lambda, up to the gap it certifies. The seed
// corpus (testdata/fuzz/FuzzMultiTaskLasso) holds exactly and nearly
// collinear columns, a constant column, fewer rows than features, and a
// single row.
func FuzzMultiTaskLasso(f *testing.F) {
	opt := Options{}.withDefaults()
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, frac, ok := fuzzProblem(data)
		if !ok {
			return
		}
		lam := frac * MultiTaskLambdaMax(x, y)
		m := MultiTaskLasso(x, y, lam, Options{})
		for _, v := range append(append([]float64(nil), m.Coef.Data...), m.Intercept...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("lambda %g: non-finite model %v + %v", lam, m.Coef.Data, m.Intercept)
			}
		}
		if m.Iterations > opt.MaxIter || m.Gap > opt.Tol {
			t.Fatalf("lambda %g: gap %g after %d iterations (MaxIter %d, Tol %g)", lam, m.Gap, m.Iterations, opt.MaxIter, opt.Tol)
		}
		got := mtObjective(x, y, m, lam)
		want := mtObjective(x, y, oracleMultiTaskLasso(x, y, lam, Options{}), lam)
		scale := centeredSS(y) / float64(x.Rows)
		if slack := opt.Tol*scale + 1e-12*(math.Abs(want)+scale); got > want+slack {
			t.Fatalf("lambda %g: objective %.17g above the oracle's %.17g", lam, got, want)
		}
	})
}
