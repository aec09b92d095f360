package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/mat"
	"repro/internal/tree"
)

// modelFileVersion guards against loading files written by incompatible
// releases.
const modelFileVersion = 1

// modelFile is the on-disk envelope.
type modelFile struct {
	Version int            `json:"version"`
	Model   *TwoLevelModel `json:"model"`
}

// Write serializes the model as JSON.
func (m *TwoLevelModel) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(modelFile{Version: modelFileVersion, Model: m})
}

// Read deserializes a model previously written with Write.
func Read(r io.Reader) (*TwoLevelModel, error) {
	var f modelFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if f.Version != modelFileVersion {
		return nil, fmt.Errorf("core: model file version %d, this build reads %d", f.Version, modelFileVersion)
	}
	if f.Model == nil {
		return nil, fmt.Errorf("core: model file has no model")
	}
	if err := f.Model.validateLoaded(); err != nil {
		return nil, err
	}
	f.Model.compile()
	return f.Model, nil
}

// Save writes the model to a file path atomically: the JSON is written
// to a temporary file in the same directory, synced, and renamed over
// the destination, so a concurrent reader (e.g. a serving process
// hot-reloading on SIGHUP) can never observe a torn or partial file.
func (m *TwoLevelModel) Save(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			_ = tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	if err := m.Write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	// CreateTemp uses 0600; match the permissions os.Create would give.
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	name := tmp.Name()
	tmp = nil // the deferred cleanup no longer owns the file
	if err := os.Rename(name, path); err != nil {
		_ = os.Remove(name)
		return err
	}
	return nil
}

// Load reads a model from a file path.
func Load(path string) (*TwoLevelModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// validateLoaded sanity-checks structural invariants after deserialization
// so a corrupt file fails at load time, not at first prediction.
func (m *TwoLevelModel) validateLoaded() error {
	if err := m.Cfg.check(); err != nil {
		return err
	}
	if m.Cfg.Mode == ModeBasis && (len(m.Cfg.Basis) == 0 || m.Cfg.MaxTerms < 1 || m.Cfg.MaxTerms >= len(m.Cfg.SmallScales)) {
		return fmt.Errorf("core: basis model with %d terms and MaxTerms %d for %d small scales",
			len(m.Cfg.Basis), m.Cfg.MaxTerms, len(m.Cfg.SmallScales))
	}
	if len(m.Interp) != len(m.Cfg.SmallScales) {
		return fmt.Errorf("core: %d interpolation models for %d small scales", len(m.Interp), len(m.Cfg.SmallScales))
	}
	for i, f := range m.Interp {
		if f == nil || len(f.Trees) == 0 {
			return fmt.Errorf("core: interpolation model %d is empty", i)
		}
		if f.Features != len(m.ParamNames) {
			return fmt.Errorf("core: interpolation model %d expects %d features, model has %d params",
				i, f.Features, len(m.ParamNames))
		}
		for j, t := range f.Trees {
			if err := validateTree(t, f.Features); err != nil {
				return fmt.Errorf("core: interpolation model %d tree %d: %w", i, j, err)
			}
		}
	}
	if len(m.ClusterModels) == 0 {
		return fmt.Errorf("core: no cluster models")
	}
	for i, cm := range m.ClusterModels {
		switch m.Cfg.Mode {
		case ModeAnchored:
			if cm.Multi == nil && len(cm.Single) == 0 {
				return fmt.Errorf("core: anchored cluster %d has no model", i)
			}
			if cm.Multi != nil && cm.Multi.Tasks != len(m.Cfg.LargeScales) {
				return fmt.Errorf("core: anchored cluster %d has %d tasks for %d large scales",
					i, cm.Multi.Tasks, len(m.Cfg.LargeScales))
			}
			if cm.Multi != nil {
				if err := checkDense(fmt.Sprintf("anchored cluster %d coef", i), cm.Multi.Coef,
					len(m.Cfg.SmallScales), len(m.Cfg.LargeScales)); err != nil {
					return err
				}
				if len(cm.Multi.Intercept) != cm.Multi.Tasks {
					return fmt.Errorf("core: anchored cluster %d has %d intercepts for %d tasks",
						i, len(cm.Multi.Intercept), cm.Multi.Tasks)
				}
			}
			if cm.Single != nil && len(cm.Single) != len(m.Cfg.LargeScales) {
				return fmt.Errorf("core: anchored cluster %d has %d single-task models for %d large scales",
					i, len(cm.Single), len(m.Cfg.LargeScales))
			}
			for t, mdl := range cm.Single {
				if mdl == nil || len(mdl.Coef) != len(m.Cfg.SmallScales) {
					return fmt.Errorf("core: anchored cluster %d single-task model %d does not take %d small-scale features",
						i, t, len(m.Cfg.SmallScales))
				}
			}
		case ModeBasis:
			for _, j := range cm.Support {
				if j < 0 || j >= len(m.Cfg.Basis) {
					return fmt.Errorf("core: cluster %d support index %d outside basis of %d terms",
						i, j, len(m.Cfg.Basis))
				}
			}
			if !m.Cfg.SingleTask && cm.Support == nil {
				return fmt.Errorf("core: basis cluster %d has no support but model is not single-task", i)
			}
		default:
			return fmt.Errorf("core: loaded model has unresolved mode %q", m.Cfg.Mode)
		}
	}
	if m.Centroids != nil {
		if err := checkDense("centroids", m.Centroids, len(m.ClusterModels), len(m.Cfg.SmallScales)); err != nil {
			return err
		}
	}
	if m.Centroids == nil && len(m.ClusterModels) != 1 {
		return fmt.Errorf("core: multiple cluster models without centroids")
	}
	if err := m.Meta.Calibration.Validate(); err != nil {
		return err
	}
	return nil
}

// checkDense reports whether a decoded matrix has the rows × cols shape
// its reader indexes it by, and a data slice of exactly that length:
// Dense.Row slices by Cols, so a short slice would read past its end
// (into capacity, silently) and a wrong Cols would misalign every row.
func checkDense(name string, d *mat.Dense, rows, cols int) error {
	if d == nil {
		return fmt.Errorf("core: %s matrix is missing", name)
	}
	if d.Rows != rows || d.Cols != cols {
		return fmt.Errorf("core: %s matrix is %dx%d, want %dx%d", name, d.Rows, d.Cols, rows, cols)
	}
	if len(d.Data) != rows*cols {
		return fmt.Errorf("core: %s matrix holds %d values for %dx%d", name, len(d.Data), rows, cols)
	}
	return nil
}

// validateTree checks that t is a proper binary tree rooted at node 0
// over features inputs: non-empty, every split's feature and children
// in range, and every node reached exactly once from the root (no
// cycles, shared children or unreachable nodes). Traversal, pointer or
// compiled, may then assume it terminates without an index panic.
func validateTree(t *tree.Tree, features int) error {
	if t == nil || len(t.Nodes) == 0 {
		return fmt.Errorf("empty tree")
	}
	if t.Features != features {
		return fmt.Errorf("tree expects %d features, forest has %d", t.Features, features)
	}
	n := len(t.Nodes)
	seen := make([]bool, n)
	seen[0] = true
	reached := 1
	stack := []int32{0}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &t.Nodes[j]
		if nd.Feature < 0 {
			continue
		}
		if nd.Feature >= features {
			return fmt.Errorf("node %d splits on feature %d, outside [0, %d)", j, nd.Feature, features)
		}
		for _, c := range [2]int32{nd.Left, nd.Right} {
			if c < 0 || int(c) >= n {
				return fmt.Errorf("node %d has child %d, outside [0, %d)", j, c, n)
			}
			if seen[c] {
				return fmt.Errorf("node %d is reached twice (cycle or shared child)", c)
			}
			seen[c] = true
			reached++
			stack = append(stack, c)
		}
	}
	if reached != n {
		return fmt.Errorf("%d of %d nodes are unreachable from the root", n-reached, n)
	}
	return nil
}
