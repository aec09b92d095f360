package mat

// MulATA returns aᵀ*a, exploiting symmetry: only the upper triangle is
// computed, then mirrored. NNLS factors this Gram matrix.
func MulATA(a *Dense) *Dense {
	n := a.Cols
	out := NewDense(n, n)
	for r := 0; r < a.Rows; r++ {
		row := a.Row(r)
		for i := 0; i < n; i++ {
			vi := row[i]
			if vi == 0 {
				continue
			}
			orow := out.Data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				orow[j] += vi * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.Data[j*n+i] = out.Data[i*n+j]
		}
	}
	return out
}
