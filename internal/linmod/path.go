package linmod

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// problem is one standardized (multitask) lasso problem in covariance
// ("Gram") form. For the standardized design X (n×p, every column
// centered and scaled to unit variance) and the per-task centered
// targets Y (n×T) it holds
//
//	G = XᵀX (p×p),  C = XᵀY (p×T),  yy = ‖Y‖²_F,
//
// plus the means and scales that map coefficients back to raw units.
// The solver reads nothing else, so one group update costs O(p·T)
// whatever n is (glmnet's covariance update; Friedman, Hastie &
// Tibshirani, J. Stat. Softw. 2010).
type problem struct {
	n, p, tasks int
	g           []float64 // p×p, row-major
	c           []float64 // p×T, row-major
	yy          float64
	xMean       []float64
	xScale      []float64 // column standard deviation, 1 where it is 0
	yMean       []float64
}

func newProblem(x, y *mat.Dense) *problem {
	if x.Rows != y.Rows {
		panic(fmt.Sprintf("linmod: %d rows vs %d targets", x.Rows, y.Rows))
	}
	if x.Rows == 0 {
		panic("linmod: fit on empty dataset")
	}
	n, p, tasks := x.Rows, x.Cols, y.Cols
	pr := &problem{
		n: n, p: p, tasks: tasks,
		g:      make([]float64, p*p),
		c:      make([]float64, p*tasks),
		xMean:  make([]float64, p),
		xScale: make([]float64, p),
		yMean:  make([]float64, tasks),
	}
	xs := x.Clone()
	for j := 0; j < p; j++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += xs.At(i, j)
		}
		mu := sum / float64(n)
		var ss float64
		for i := 0; i < n; i++ {
			d := xs.At(i, j) - mu
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(n))
		if sd == 0 {
			sd = 1
		}
		pr.xMean[j], pr.xScale[j] = mu, sd
		for i := 0; i < n; i++ {
			xs.Set(i, j, (xs.At(i, j)-mu)/sd)
		}
	}
	ys := y.Clone()
	for t := 0; t < tasks; t++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += ys.At(i, t)
		}
		mu := sum / float64(n)
		pr.yMean[t] = mu
		for i := 0; i < n; i++ {
			ys.Set(i, t, ys.At(i, t)-mu)
		}
	}
	for i := 0; i < n; i++ {
		xr, yr := xs.Row(i), ys.Row(i)
		for j, a := range xr {
			if a == 0 {
				continue
			}
			gj := pr.g[j*p : (j+1)*p]
			for k, b := range xr {
				gj[k] += a * b
			}
			cj := pr.c[j*tasks : (j+1)*tasks]
			for t, v := range yr {
				cj[t] += a * v
			}
		}
		for _, v := range yr {
			pr.yy += v * v
		}
	}
	return pr
}

// dropDuplicates removes every column that equals ± an earlier one to
// working precision (|Gⱼₖ| ≥ (1−1e-12)·√(GⱼⱼGₖₖ)) by zeroing its rows of
// G and C, so its coefficient stays 0 like a constant column's. For the
// lasso that loses nothing: with Xₖ = ±Xⱼ, moving Bₖ onto Bⱼ keeps the
// fit and cannot raise ‖Bⱼ‖ + ‖Bₖ‖, and the dual constraint of column k
// has the same norm as column j's. Left in, the pair would give the
// objective a flat direction along which Newton steps are arbitrary.
// (Ridge's L2 penalty prefers splitting the weight, so it keeps
// duplicates.)
func (pr *problem) dropDuplicates() {
	p := pr.p
	for k := 1; k < p; k++ {
		gkk := pr.g[k*p+k]
		for j := 0; j < k && gkk > 0; j++ {
			gjj := pr.g[j*p+j]
			if gjj == 0 || math.Abs(pr.g[j*p+k]) < (1-1e-12)*math.Sqrt(gjj*gkk) {
				continue
			}
			for i := 0; i < p; i++ {
				pr.g[k*p+i], pr.g[i*p+k] = 0, 0
			}
			for t := 0; t < pr.tasks; t++ {
				pr.c[k*pr.tasks+t] = 0
			}
			gkk = 0
		}
	}
}

// lambdaMax is the smallest lambda at which every coefficient is zero:
// maxⱼ ‖Cⱼ‖ / n.
func (pr *problem) lambdaMax() float64 {
	var best float64
	for j := 0; j < pr.p; j++ {
		if v := mat.Norm2(pr.c[j*pr.tasks:(j+1)*pr.tasks]) / float64(pr.n); v > best {
			best = v
		}
	}
	return best
}

// maxNewton caps the Newton steps of one polish; from inside the
// quadratic region a handful reach rounding level. maxHalvings caps one
// step's backtracking line search.
const (
	maxNewton   = 8
	maxHalvings = 30
)

// solver walks one problem along a lambda path. b is the coefficient
// matrix B (p×T, standardized units) and h = G·B, which every update
// keeps current, so the residual correlations XᵀR = C − H are at hand
// without touching the n data rows.
type solver struct {
	*problem
	opt  Options
	b, h []float64
	rho  []float64 // T scratch
	// Newton scratch, sized for every group active.
	trialB, trialH, gdir, grad, dir, u []float64
	w, z, mm, minv, q                  []float64
	act                                []int
}

func newSolver(pr *problem, opt Options) *solver {
	pt := pr.p * pr.tasks
	return &solver{
		problem: pr, opt: opt.withDefaults(),
		b: make([]float64, pt), h: make([]float64, pt),
		rho:    make([]float64, pr.tasks),
		trialB: make([]float64, pt), trialH: make([]float64, pt), gdir: make([]float64, pt),
		grad: make([]float64, pt), dir: make([]float64, pt), u: make([]float64, pt),
		w: make([]float64, pr.p), z: make([]float64, pr.p),
		mm: make([]float64, pr.p*pr.p), minv: make([]float64, pr.p*pr.p), q: make([]float64, pr.p*pr.p),
	}
}

// solve minimizes
//
//	½‖Y − X·B‖²_F + α·Σⱼ ‖Bⱼ‖₂,  α = lambda·n
//
// (the package's (1/2n)-scaled objective times n) from the current B, so
// consecutive calls along a descending lambda grid warm-start each
// other. Each iteration is one block-coordinate sweep over the groups
// (features); once the active set has held for a few sweeps, damped
// Newton steps on the active groups finish the solve, which coordinate
// descent alone does only slowly on collinear features. It stops as
// soon as the duality gap is at most Tol·‖Y‖² (Ndiaye et al., JMLR 2017)
// or after MaxIter iterations, and returns the iterations used and the
// relative gap reached. Lambda 0 is least squares, solved in closed form.
func (s *solver) solve(lambda float64) (iters int, gap float64) {
	alpha := lambda * float64(s.n)
	if alpha == 0 {
		s.leastSquares()
		return 0, 0
	}
	s.refresh()
	wait, stable := 2, 0
	for iters < s.opt.MaxIter {
		changed := s.sweep(alpha)
		iters++
		if gap = s.gap(alpha); gap <= s.opt.Tol {
			return iters, gap
		}
		if changed {
			stable = 0
			continue
		}
		if stable++; stable < wait {
			continue
		}
		var steps int
		steps, gap = s.newton(alpha, s.opt.MaxIter-iters)
		iters += steps
		if gap <= s.opt.Tol {
			return iters, gap
		}
		stable, wait = 0, 2*wait
	}
	return iters, gap
}

func (s *solver) row(v []float64, j int) []float64 { return v[j*s.tasks : (j+1)*s.tasks] }

// refresh recomputes H = G·B from scratch, dropping the rounding the
// incremental updates accumulate.
func (s *solver) refresh() { s.mulG(s.h, s.b) }

// mulG sets dst = G·src for p×T matrices.
func (s *solver) mulG(dst, src []float64) {
	p := s.p
	for j := range dst {
		dst[j] = 0
	}
	for j := 0; j < p; j++ {
		dj := s.row(dst, j)
		for k, gjk := range s.g[j*p : (j+1)*p] {
			if gjk == 0 {
				continue
			}
			for t, v := range s.row(src, k) {
				dj[t] += gjk * v
			}
		}
	}
}

// sweep runs one block-coordinate pass: each group takes its exact
// minimizer with the others fixed, the group soft-threshold
// Bⱼ = max(0, 1 − α/‖ρ‖)·ρ/Gⱼⱼ of ρ = Cⱼ − Hⱼ + Gⱼⱼ·Bⱼ. It reports
// whether any group entered or left the active set.
func (s *solver) sweep(alpha float64) (changed bool) {
	p, rho := s.p, s.rho
	for j := 0; j < p; j++ {
		gjj := s.g[j*p+j]
		if gjj == 0 {
			continue // a constant column
		}
		bj, hj, cj := s.row(s.b, j), s.row(s.h, j), s.row(s.c, j)
		for t := range rho {
			rho[t] = cj[t] - hj[t] + gjj*bj[t]
		}
		nrm := mat.Norm2(rho)
		var scale float64
		if nrm > alpha {
			scale = (1 - alpha/nrm) / gjj
		}
		wasActive := mat.Norm2(bj) > 0
		moved := false
		for t := range rho {
			nb := scale * rho[t]
			d := nb - bj[t]
			rho[t] = d
			if d != 0 {
				moved = true
			}
			bj[t] = nb
		}
		if !moved {
			continue
		}
		if wasActive != (scale > 0) {
			changed = true
		}
		for k := 0; k < p; k++ {
			gkj := s.g[k*p+j]
			if gkj == 0 {
				continue
			}
			hk := s.row(s.h, k)
			for t, d := range rho {
				hk[t] += gkj * d
			}
		}
	}
	return changed
}

// gap returns the duality gap at B relative to ‖Y‖². Every term comes
// from G, C, H and ‖Y‖²: with R = Y − X·B,
//
//	‖R‖² = ‖Y‖² − 2⟨B,C⟩ + ⟨B,H⟩,  ⟨Y,R⟩ = ‖Y‖² − ⟨B,C⟩,
//
// and the dual point is R scaled by σ = min(1, α / maxⱼ‖Cⱼ − Hⱼ‖), which
// makes it feasible, with dual value σ⟨Y,R⟩ − ½σ²‖R‖².
func (s *solver) gap(alpha float64) float64 {
	if s.yy == 0 {
		return 0
	}
	var bc, bh, pen, maxCorr float64
	for j := 0; j < s.p; j++ {
		bj, cj, hj := s.row(s.b, j), s.row(s.c, j), s.row(s.h, j)
		var corr float64
		for t := range bj {
			bc += bj[t] * cj[t]
			bh += bj[t] * hj[t]
			d := cj[t] - hj[t]
			corr += d * d
		}
		pen += mat.Norm2(bj)
		if corr > maxCorr {
			maxCorr = corr
		}
	}
	rr := math.Max(s.yy-2*bc+bh, 0)
	primal := 0.5*rr + alpha*pen
	sigma := 1.0
	if c := math.Sqrt(maxCorr); c > alpha {
		sigma = alpha / c
	}
	dual := sigma*(s.yy-bc) - 0.5*sigma*sigma*rr
	return math.Max(primal-dual, 0) / s.yy
}

// objective is ½⟨B,HB⟩ − ⟨C,B⟩ + α·Σⱼ‖Bⱼ‖ for a B whose G·B is hb: the
// primal objective less the constant ½‖Y‖².
func (s *solver) objective(b, hb []float64, alpha float64) float64 {
	var quad, lin, pen float64
	for j := 0; j < s.p; j++ {
		bj, hj, cj := s.row(b, j), s.row(hb, j), s.row(s.c, j)
		for t, v := range bj {
			quad += v * hj[t]
			lin += v * cj[t]
		}
		pen += mat.Norm2(bj)
	}
	return 0.5*quad - lin + alpha*pen
}

// newton takes up to min(budget, maxNewton) damped Newton steps on the
// active groups, where the objective is smooth: its gradient is
// Fⱼ = Hⱼ − Cⱼ + α·uⱼ and its Hessian G_AA⊗I + blockdiag(α/‖Bⱼ‖·
// (I − uⱼuⱼᵀ)), uⱼ = Bⱼ/‖Bⱼ‖. Near a group the solution drops that
// model fails (the Hessian's α/‖Bⱼ‖ grows without bound, and along a
// direction the active columns cannot see it is flat), and the full step
// turns the group past zero. Then, as an active-set method would, the
// step stops where that group comes closest to zero and sets it to zero
// there. Otherwise a backtracking line search keeps every step a descent
// step. It returns the steps taken and the relative gap after them.
func (s *solver) newton(alpha float64, budget int) (steps int, gap float64) {
	s.refresh()
	gap = s.gap(alpha)
	for steps < budget && steps < maxNewton {
		act, dir := s.newtonDirection(alpha)
		if act == nil {
			return steps, gap
		}
		f0 := s.objective(s.b, s.h, alpha)
		if !s.dropStep(act, dir, alpha, f0) && !s.lineSearch(act, dir, alpha, f0) {
			return steps, gap
		}
		steps++
		if gap = s.gap(alpha); gap <= s.opt.Tol {
			return steps, gap
		}
	}
	return steps, gap
}

// dropStep finds the active group the full step turns furthest past
// zero (the first to reach zero: ⟨Bⱼ, Bⱼ + dirⱼ⟩ < 0, relative to
// ‖Bⱼ‖²), moves B along dir to that group's closest approach to zero
// and zeroes it there. It keeps the move if the objective does not rise
// above f0, and reports whether it made one.
func (s *solver) dropStep(act []int, dir []float64, alpha, f0 float64) bool {
	drop, worst := -1, 0.0
	for ai, j := range act {
		bj := s.row(s.b, j)
		bb := mat.Dot(bj, bj)
		if r := (bb + mat.Dot(bj, s.row(dir, ai))) / bb; r < worst {
			drop, worst = ai, r
		}
	}
	if drop < 0 {
		return false
	}
	dj := s.row(dir, drop)
	step := -mat.Dot(s.row(s.b, act[drop]), dj) / mat.Dot(dj, dj)
	copy(s.trialB, s.b)
	for ai, j := range act {
		tb := s.row(s.trialB, j)
		for t, d := range s.row(dir, ai) {
			tb[t] += step * d
		}
	}
	for t := range s.row(s.trialB, act[drop]) {
		s.trialB[act[drop]*s.tasks+t] = 0
	}
	s.mulG(s.trialH, s.trialB)
	if s.objective(s.trialB, s.trialH, alpha) > f0 {
		return false
	}
	copy(s.b, s.trialB)
	copy(s.h, s.trialH)
	return true
}

// lineSearch moves B to B + step·dir for the longest step of 1, ½, ¼, …
// that meets the Armijo condition, and reports whether one did.
func (s *solver) lineSearch(act []int, dir []float64, alpha, f0 float64) bool {
	slope := mat.Dot(s.grad[:len(dir)], dir)
	if !(slope < 0) {
		return false
	}
	// Along the step, G·B moves by G·dir: computed once, every trial
	// point's H is an axpy.
	for i := range s.trialB {
		s.trialB[i] = 0
	}
	for ai, j := range act {
		copy(s.row(s.trialB, j), s.row(dir, ai))
	}
	s.mulG(s.gdir, s.trialB)
	for step, try := 1.0, 0; try < maxHalvings; step, try = step/2, try+1 {
		copy(s.trialB, s.b)
		for ai, j := range act {
			tb := s.row(s.trialB, j)
			for t, d := range s.row(dir, ai) {
				tb[t] += step * d
			}
		}
		for i, v := range s.gdir {
			s.trialH[i] = s.h[i] + step*v
		}
		if s.objective(s.trialB, s.trialH, alpha) <= f0+1e-4*step*slope {
			copy(s.b, s.trialB)
			copy(s.h, s.trialH)
			return true
		}
	}
	return false
}

// newtonDirection collects the active groups A and solves for the
// Newton step on them; it returns a nil active set when there is none
// or a factorization fails. The gradient is left in s.grad.
//
// The Hessian is J = K − V·S·Vᵀ with K = (G_AA + W)⊗I, W = S = diag(α/‖Bⱼ‖)
// and V's column j the unit vector uⱼ in group j's block, so by the
// Woodbury identity the step needs only a×a factorizations, a = |A|,
// never one of size a·T (in basis mode T is the cluster size): with
// M = G_AA + W, Z = M⁻¹(−F) row-block-wise and zⱼ = uⱼ·Zⱼ, the step is
// Z + M⁻¹·diag(c)·U for c = Q⁻¹z, Q = S⁻¹ − M⁻¹∘(uᵢ·uⱼ).
func (s *solver) newtonDirection(alpha float64) (act []int, dir []float64) {
	p, tasks := s.p, s.tasks
	act = s.act[:0]
	for j := 0; j < p; j++ {
		if s.g[j*p+j] > 0 && mat.Norm2(s.row(s.b, j)) > 0 {
			act = append(act, j)
		}
	}
	s.act = act
	if len(act) == 0 {
		return nil, nil
	}
	a, m := len(act), len(act)*tasks
	grad, dir, u := s.grad[:m], s.dir[:m], s.u[:m]
	w := s.w[:a]
	mm := &mat.Dense{Rows: a, Cols: a, Data: s.mm[:a*a]}
	var maxDiag float64
	for ai, j := range act {
		bj := s.row(s.b, j)
		nj := mat.Norm2(bj)
		w[ai] = alpha / nj
		hj, cj := s.row(s.h, j), s.row(s.c, j)
		for t := 0; t < tasks; t++ {
			grad[ai*tasks+t] = hj[t] - cj[t] + w[ai]*bj[t]
			u[ai*tasks+t] = bj[t] / nj
		}
		for bi, k := range act {
			mm.Set(ai, bi, s.g[j*p+k])
		}
		mm.Set(ai, ai, mm.At(ai, ai)+w[ai])
		maxDiag = math.Max(maxDiag, mm.At(ai, ai))
	}
	// J is only semidefinite when active columns are collinear to
	// working precision; a relative 1e-10 ridge on J (so on M) keeps
	// every factorization defined and barely bends the step.
	for i := 0; i < a; i++ {
		mm.Set(i, i, mm.At(i, i)+1e-10*maxDiag)
	}
	lm, err := mat.Cholesky(mm)
	if err != nil {
		return nil, nil
	}
	// dir = Z = M⁻¹(−F); minv = M⁻¹.
	for i, v := range grad {
		dir[i] = -v
	}
	cholSolveRows(lm, dir, tasks)
	minv := &mat.Dense{Rows: a, Cols: a, Data: s.minv[:a*a]}
	for i := range minv.Data {
		minv.Data[i] = 0
	}
	for i := 0; i < a; i++ {
		minv.Set(i, i, 1)
	}
	cholSolveRows(lm, minv.Data, a)
	q := &mat.Dense{Rows: a, Cols: a, Data: s.q[:a*a]}
	z := s.z[:a]
	for i := 0; i < a; i++ {
		z[i] = mat.Dot(s.row(u, i), s.row(dir, i))
		for j := 0; j < a; j++ {
			q.Set(i, j, -minv.At(i, j)*mat.Dot(s.row(u, i), s.row(u, j)))
		}
		q.Set(i, i, q.At(i, i)+1/w[i])
	}
	lq, err := mat.Cholesky(q)
	if err != nil {
		return nil, nil
	}
	cholSolveRows(lq, z, 1)
	for i := 0; i < a; i++ {
		di := s.row(dir, i)
		for j := 0; j < a; j++ {
			f := minv.At(i, j) * z[j]
			for t, v := range s.row(u, j) {
				di[t] += f * v
			}
		}
	}
	return act, dir
}

// cholSolveRows overwrites the a×cols row-major matrix r with A⁻¹r,
// given the Cholesky factor l of A.
func cholSolveRows(l *mat.Dense, r []float64, cols int) {
	a := l.Rows
	for i := 0; i < a; i++ {
		ri := r[i*cols : (i+1)*cols]
		for k := 0; k < i; k++ {
			f := l.At(i, k)
			for t, v := range r[k*cols : (k+1)*cols] {
				ri[t] -= f * v
			}
		}
		d := l.At(i, i)
		for t := range ri {
			ri[t] /= d
		}
	}
	for i := a - 1; i >= 0; i-- {
		ri := r[i*cols : (i+1)*cols]
		for k := i + 1; k < a; k++ {
			f := l.At(k, i)
			for t, v := range r[k*cols : (k+1)*cols] {
				ri[t] -= f * v
			}
		}
		d := l.At(i, i)
		for t := range ri {
			ri[t] /= d
		}
	}
}

// leastSquares sets B to the least-squares solution G·B = C, with a
// 1e-10·n jitter on G's diagonal when G is singular.
func (s *solver) leastSquares() {
	p := s.p
	g := &mat.Dense{Rows: p, Cols: p, Data: append([]float64(nil), s.g...)}
	l, err := mat.Cholesky(g)
	if err != nil {
		for j := 0; j < p; j++ {
			g.Set(j, j, g.At(j, j)+1e-10*float64(s.n))
		}
		if l, err = mat.Cholesky(g); err != nil {
			panic("linmod: least-squares normal equations unsolvable: " + err.Error())
		}
	}
	col := make([]float64, p)
	for t := 0; t < s.tasks; t++ {
		for j := range col {
			col[j] = s.c[j*s.tasks+t]
		}
		for j, v := range mat.SolveCholesky(l, col) {
			s.b[j*s.tasks+t] = v
		}
	}
	s.refresh()
}

// coefficients maps B back to raw units: coefficient Bⱼₜ/scaleⱼ and
// intercept ȳₜ − Σⱼ coefⱼₜ·x̄ⱼ.
func (s *solver) coefficients() (*mat.Dense, []float64) {
	coef := mat.NewDense(s.p, s.tasks)
	inter := append([]float64(nil), s.yMean...)
	for j := 0; j < s.p; j++ {
		for t := 0; t < s.tasks; t++ {
			c := s.b[j*s.tasks+t] / s.xScale[j]
			coef.Set(j, t, c)
			inter[t] -= c * s.xMean[j]
		}
	}
	return coef, inter
}

// checkLambdas panics on a negative or NaN penalty.
func checkLambdas(lambdas []float64) {
	for _, l := range lambdas {
		if !(l >= 0) {
			panic(fmt.Sprintf("linmod: lambda %v is not a non-negative number", l))
		}
	}
}
