// Package core implements the paper's contribution: the two-level model
// for predicting large-scale HPC application performance from small-scale
// execution history.
//
// Level 1 (interpolation): one random-forest regressor per small scale
// maps application input parameters to runtime at that scale. This is a
// within-distribution problem, where the i.i.d. hypothesis holds and
// forests excel.
//
// Level 2 (extrapolation) clusters configurations by the *shape* of their
// predicted small-scale scaling curves and fits, per cluster, a
// scalability model. Two backends are provided, corresponding to the two
// defensible readings of the paper's abstract (see DESIGN.md):
//
//   - Anchored (primary): a multitask lasso whose tasks are the large
//     target scales, trained on the cluster's "anchor" configurations —
//     those whose history happens to include large-scale runs. Features
//     are the interpolation level's small-scale predictions, so the
//     extrapolation level is trained on exactly the input distribution it
//     sees at deployment; the L2,1 penalty couples the target scales so
//     they select the same stable subset of small scales, damping
//     interpolation noise. This converts one non-i.i.d. extrapolation
//     problem into two i.i.d. interpolation problems.
//
//   - Basis: when the history contains NO large-scale run at all, a
//     multitask lasso whose tasks are the cluster's configurations
//     selects, via the same L2,1 coupling, one shared set of analytic
//     scalability terms (p^a·log^b p); a new configuration's predicted
//     curve is refitted on those terms (non-negatively, so the model
//     cannot diverge) and evaluated at the target scale.
//
// Predicting a brand-new configuration never requires executing it:
// parameters → per-scale forests → predicted curve → cluster → backend.
package core

import (
	"fmt"
	"math"

	"repro/internal/forest"
	"repro/internal/linmod"
	"repro/internal/scalefit"
)

// Mode selects the extrapolation-level backend.
type Mode string

// Extrapolation-level backends.
const (
	// ModeAuto uses ModeAnchored when the history has at least MinAnchors
	// anchor configurations, ModeBasis otherwise.
	ModeAuto Mode = ""
	// ModeAnchored trains the multitask lasso (tasks = large scales) on
	// anchor configurations.
	ModeAnchored Mode = "anchored"
	// ModeBasis fits cluster-shared scalability basis terms; needs no
	// large-scale history.
	ModeBasis Mode = "basis"
)

// Config controls the two-level model. Zero values select the defaults
// noted per field (see DefaultConfig).
type Config struct {
	// SmallScales are the scales with abundant history; every training
	// configuration must have runs at every small scale. Ascending.
	SmallScales []int
	// LargeScales are the prediction targets. Ascending, above SmallScales.
	// In ModeAnchored these are exactly the multitask lasso's tasks; in
	// ModeBasis they are the default targets (PredictScale accepts any).
	LargeScales []int

	// Mode selects the extrapolation backend (see Mode constants).
	Mode Mode
	// MinAnchors is the anchor count below which ModeAuto falls back to
	// ModeBasis.
	MinAnchors int

	// Clusters is the k for scaling-curve k-means; 1 disables clustering
	// (the paper's method uses a small k > 1, the ablation uses 1).
	Clusters int
	// MinClusterSize guards against clusters too small to fit a stable
	// model; clusters below it are merged into the nearest one.
	MinClusterSize int

	// Lambda is the multitask-lasso regularization strength; <= 0 selects
	// it per cluster (cross-validation over anchors in ModeAnchored,
	// leave-the-largest-small-scale-out in ModeBasis).
	Lambda float64
	// CVFolds configures the anchored-mode cross-validation.
	CVFolds int
	// CVLambdas is the size of the selection grid.
	CVLambdas int

	// LogTransform fits the anchored extrapolation level on log-runtimes
	// (features and targets), so the linear model captures products of
	// power laws. Default on; NoLogTransform disables.
	LogTransform   bool
	NoLogTransform bool

	// LogInterpolation trains the interpolation forests on log-runtimes
	// (predictions are exponentiated). Runtimes span orders of magnitude
	// across a parameter space, and a forest averaging raw values inside a
	// leaf is dominated by its largest member; averaging logs makes leaf
	// aggregation geometric and errors relative. Default on.
	LogInterpolation   bool
	NoLogInterpolation bool

	// Basis is the scalability hypothesis set for ModeBasis; empty selects
	// scalefit.ScalabilityBasis(). The constant term is implicit.
	Basis []scalefit.Term
	// MaxTerms caps selected basis terms per cluster in ModeBasis;
	// <= 0 selects len(SmallScales) - 2.
	MaxTerms int

	// SingleTask replaces the multitask lasso with independent lassos
	// (ablation: no cross-task coupling). In ModeAnchored that is one
	// lasso per large scale; in ModeBasis, per-configuration selection.
	SingleTask bool
	// FeaturesFromMeasurements fits the extrapolation level on measured
	// small-scale curves instead of interpolation-level predictions
	// (ablation: breaks train/deploy consistency).
	FeaturesFromMeasurements bool

	// Forest configures the per-scale interpolation forests.
	Forest forest.Params
	// Lasso configures the lasso solver: its iteration cap and its
	// duality-gap tolerance (zero selects the defaults).
	Lasso linmod.Options
}

// DefaultConfig returns the configuration used in the paper-shaped
// experiments: small scales 2–64, targets 128–1024, k = 3 clusters,
// CV-selected lambda, auto backend.
func DefaultConfig() Config {
	return Config{
		SmallScales:    []int{2, 4, 8, 16, 32, 64},
		LargeScales:    []int{128, 256, 512, 1024},
		MinAnchors:     8,
		Clusters:       3,
		MinClusterSize: 8,
		CVFolds:        4,
		CVLambdas:      12,
		Forest:         forest.Defaults(),
	}
}

// normalize fills defaults and validates; returns an error a user can act on.
func (c Config) normalize() (Config, error) {
	d := DefaultConfig()
	if len(c.SmallScales) == 0 {
		c.SmallScales = d.SmallScales
	}
	if len(c.LargeScales) == 0 {
		c.LargeScales = d.LargeScales
	}
	switch c.Mode {
	case ModeAuto, ModeAnchored, ModeBasis:
	default:
		return c, fmt.Errorf("core: unknown mode %q", c.Mode)
	}
	if c.MinAnchors <= 0 {
		c.MinAnchors = d.MinAnchors
	}
	if c.Clusters <= 0 {
		c.Clusters = d.Clusters
	}
	if c.MinClusterSize <= 0 {
		c.MinClusterSize = d.MinClusterSize
	}
	if c.CVFolds <= 0 {
		c.CVFolds = d.CVFolds
	}
	if c.CVLambdas <= 0 {
		c.CVLambdas = d.CVLambdas
	}
	if len(c.Basis) == 0 {
		c.Basis = scalefit.ScalabilityBasis()
	}
	if c.MaxTerms <= 0 {
		c.MaxTerms = len(c.SmallScales) - 2
	}
	if c.MaxTerms > len(c.SmallScales)-1 {
		c.MaxTerms = len(c.SmallScales) - 1
	}
	c.LogTransform = !c.NoLogTransform
	c.LogInterpolation = !c.NoLogInterpolation
	if c.Forest.Trees <= 0 {
		c.Forest = d.Forest
	}
	return c, c.check()
}

// Bounds on the settings that fix how long one prediction runs: a basis
// term's log exponent is a loop count in scalefit.Term.Eval, and the
// basis size, CVLambdas and Lasso.MaxIter bound the per-curve lasso the
// single-task basis ablation runs at prediction time. The built-in
// grids use log exponents <= 2, 17 terms, 12 lambdas and the lasso's
// default of 1000 sweeps.
const (
	maxLogExponent = 8
	maxBasisTerms  = 64
	maxCVLambdas   = 100
	maxLassoIter   = 100000
)

// check validates what every fitted model relies on. Scales: at least
// four strictly ascending small scales >= 1, and strictly ascending
// large scales all above them. Settings: the bounds above, finite basis
// exponents, a finite non-negative lasso tolerance (the lasso stops on
// a duality gap at most Tol, which a NaN never is, so a NaN would run
// every basis-mode prediction's per-curve lasso to MaxIter), and at
// least two CV folds and two grid lambdas (cross-validation needs a
// held-out fold, and a grid runs from its top down to a smaller
// lambda). Fit applies it after filling defaults, and Read to loaded
// models, where every value comes from the file.
func (c Config) check() error {
	if len(c.Basis) > maxBasisTerms {
		return fmt.Errorf("core: %d basis terms, at most %d", len(c.Basis), maxBasisTerms)
	}
	for i, t := range c.Basis {
		if t.B < 0 || t.B > maxLogExponent {
			return fmt.Errorf("core: basis term %d has log exponent %d outside [0, %d]", i, t.B, maxLogExponent)
		}
		if math.IsNaN(t.A) || math.IsInf(t.A, 0) {
			return fmt.Errorf("core: basis term %d has non-finite power exponent %v", i, t.A)
		}
	}
	if c.CVFolds < 2 {
		return fmt.Errorf("core: CVFolds %d below 2", c.CVFolds)
	}
	if c.CVLambdas < 2 {
		return fmt.Errorf("core: CVLambdas %d below 2", c.CVLambdas)
	}
	if c.CVLambdas > maxCVLambdas {
		return fmt.Errorf("core: CVLambdas %d above %d", c.CVLambdas, maxCVLambdas)
	}
	if c.Lasso.MaxIter > maxLassoIter {
		return fmt.Errorf("core: Lasso.MaxIter %d above %d", c.Lasso.MaxIter, maxLassoIter)
	}
	if tol := c.Lasso.Tol; math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 {
		return fmt.Errorf("core: Lasso.Tol %v is not a finite non-negative number", tol)
	}
	if len(c.SmallScales) == 0 || len(c.LargeScales) == 0 {
		return fmt.Errorf("core: %d small and %d large scales; need both", len(c.SmallScales), len(c.LargeScales))
	}
	for i := 1; i < len(c.SmallScales); i++ {
		if c.SmallScales[i] <= c.SmallScales[i-1] {
			return fmt.Errorf("core: SmallScales not strictly ascending: %v", c.SmallScales)
		}
	}
	if c.SmallScales[0] < 1 {
		return fmt.Errorf("core: SmallScales must be >= 1: %v", c.SmallScales)
	}
	for i := 1; i < len(c.LargeScales); i++ {
		if c.LargeScales[i] <= c.LargeScales[i-1] {
			return fmt.Errorf("core: LargeScales not strictly ascending: %v", c.LargeScales)
		}
	}
	if c.LargeScales[0] <= c.SmallScales[len(c.SmallScales)-1] {
		return fmt.Errorf("core: largest small scale %d not below smallest large scale %d",
			c.SmallScales[len(c.SmallScales)-1], c.LargeScales[0])
	}
	if len(c.SmallScales) < 4 {
		return fmt.Errorf("core: need at least four small scales, got %d", len(c.SmallScales))
	}
	return nil
}
