package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/scalefit"
	"repro/internal/tree"
)

// fitTiny returns a quick model, plus one in-space configuration, for
// persistence tests.
func fitTiny(t *testing.T) (*TwoLevelModel, []float64) {
	t.Helper()
	cfg := smallCfg()
	cfg.Forest.Trees = 10
	train, test := simTables(t, 31, 30, 15, 1, cfg)
	m, err := Fit(rng.New(7), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, test.GroupByConfig()[0].Params
}

func TestSaveLoadRoundtrip(t *testing.T) {
	m, p := fitTiny(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	want, got := m.Predict(p), loaded.Predict(p)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction changed across save/load: %v != %v", got, want)
		}
	}
}

// TestSaveAtomicLeavesNoTempFiles asserts Save's temp-file-plus-rename
// protocol cleans up after itself: after overwriting an existing model
// twice, the directory holds exactly the destination file.
func TestSaveAtomicLeavesNoTempFiles(t *testing.T) {
	m, _ := fitTiny(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	for i := 0; i < 2; i++ {
		if err := m.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.json" {
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory after Save holds %v, want only model.json", names)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("saved model has mode %v, want 0644", fi.Mode().Perm())
	}
}

// TestSaveFailurePreservesExisting asserts a failing Save (unwritable
// directory) does not destroy an existing good file at the destination.
func TestSaveFailurePreservesExisting(t *testing.T) {
	m, _ := fitTiny(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if os.Geteuid() == 0 {
		t.Skip("running as root; read-only directory does not fail writes")
	}
	if err := m.Save(path); err == nil {
		t.Fatal("Save into read-only directory succeeded unexpectedly")
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("existing model corrupted by failed Save: %v", err)
	}
}

// TestMetaRoundtrip asserts training provenance survives save/load, so
// the pipeline and the serving layer agree on a file's generation.
func TestMetaRoundtrip(t *testing.T) {
	m, _ := fitTiny(t)
	m.Meta = ModelMeta{App: "smg2000", Generation: 7, TrainHash: "abc123"}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Meta != m.Meta {
		t.Fatalf("Meta round-trip: got %+v, want %+v", loaded.Meta, m.Meta)
	}
}

func TestSaveIntoMissingDirFails(t *testing.T) {
	m, _ := fitTiny(t)
	if err := m.Save(filepath.Join(t.TempDir(), "nope", "model.json")); err == nil {
		t.Fatal("Save into missing directory succeeded unexpectedly")
	}
}

// TestReadRejectsMalformedTrees feeds Read model files whose first tree
// has been damaged in one structural way each. Read compiles every
// tree, and compiling (or walking) a cyclic tree never terminates while
// an out-of-range index panics, so each case must come back as an error
// naming the defect — promptly, and without a panic.
func TestReadRejectsMalformedTrees(t *testing.T) {
	m, _ := fitTiny(t)
	var raw bytes.Buffer
	if err := m.Write(&raw); err != nil {
		t.Fatal(err)
	}
	// internal returns the index of an internal child of the root.
	internal := func(tr *tree.Tree) int32 {
		for _, c := range []int32{tr.Nodes[0].Left, tr.Nodes[0].Right} {
			if tr.Nodes[c].Feature >= 0 {
				return c
			}
		}
		t.Fatal("fixture tree has no internal node below the root")
		return 0
	}
	cases := []struct {
		name, want string
		damage     func(tr *tree.Tree)
	}{
		{"empty", "empty tree", func(tr *tree.Tree) { tr.Nodes = nil }},
		{"cycle", "reached twice", func(tr *tree.Tree) { tr.Nodes[internal(tr)].Left = 0 }},
		{"self-loop", "reached twice", func(tr *tree.Tree) { tr.Nodes[0].Left = 0 }},
		{"shared child", "reached twice", func(tr *tree.Tree) { tr.Nodes[0].Right = tr.Nodes[0].Left }},
		{"child past end", "child", func(tr *tree.Tree) { tr.Nodes[0].Right = int32(len(tr.Nodes)) }},
		{"negative child", "child", func(tr *tree.Tree) { tr.Nodes[0].Left = -1 }},
		{"feature out of range", "splits on feature", func(tr *tree.Tree) { tr.Nodes[0].Feature = tr.Features }},
		{"tree feature count", "tree expects", func(tr *tree.Tree) { tr.Features++ }},
		{"unreachable node", "unreachable", func(tr *tree.Tree) {
			tr.Nodes = append(tr.Nodes, tree.Node{Feature: -1, Value: 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f modelFile
			if err := json.Unmarshal(raw.Bytes(), &f); err != nil {
				t.Fatal(err)
			}
			tc.damage(f.Model.Interp[0].Trees[0])
			damaged, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- fmt.Errorf("panic: %v", p)
					}
				}()
				_, err := Read(bytes.NewReader(damaged))
				if err == nil {
					err = fmt.Errorf("accepted")
				}
				done <- err
			}()
			select {
			case err := <-done:
				if !strings.Contains(err.Error(), "interpolation model 0 tree 0: ") || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Read = %v, want an error about %q in model 0 tree 0", err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Read did not return")
			}
		})
	}
}

// fitClustered returns an anchored model with several clusters (so it
// carries centroids and one multitask model per cluster), plus one
// in-space configuration.
func fitClustered(t *testing.T) (*TwoLevelModel, []float64) {
	t.Helper()
	cfg := smallCfg()
	cfg.Forest.Trees = 10
	train, test := simTables(t, 5, 200, 80, 1, cfg)
	m, err := Fit(rng.New(7), train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mode() != ModeAnchored || m.Centroids == nil || m.ClusterModels[0].Multi == nil {
		t.Fatalf("fixture is %s with %d clusters, want anchored multitask with centroids", m.Mode(), m.Clusters())
	}
	return m, test.GroupByConfig()[0].Params
}

// TestReadRejectsMalformedShapes feeds Read model files whose centroid
// or extrapolation matrices, or whose scale lists and basis settings,
// have been damaged in one way each. Dense.Row slices by Cols, so a
// short Data slice silently reads past its end and a wrong Cols either
// misaligns every row or panics at the first prediction; the scale and
// basis-size cases panic at the first prediction, and the unbounded
// loop counts (a log exponent, the lasso's grid and sweeps) make it
// hang. Each case must come back from Read as an error naming it.
func TestReadRejectsMalformedShapes(t *testing.T) {
	m, p := fitClustered(t)
	var raw bytes.Buffer
	if err := m.Write(&raw); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		damage     func(m *TwoLevelModel)
	}{
		{"centroids data short", "centroids matrix holds", func(m *TwoLevelModel) {
			m.Centroids.Data = m.Centroids.Data[:len(m.Centroids.Data)-1]
		}},
		{"centroids data long", "centroids matrix holds", func(m *TwoLevelModel) {
			m.Centroids.Data = append(m.Centroids.Data, 1)
		}},
		{"centroids cols", "centroids matrix is", func(m *TwoLevelModel) { m.Centroids.Cols++ }},
		{"centroids rows", "centroids matrix is", func(m *TwoLevelModel) { m.Centroids.Rows++ }},
		{"coef missing", "coef matrix is missing", func(m *TwoLevelModel) { m.ClusterModels[1].Multi.Coef = nil }},
		{"coef data short", "coef matrix holds", func(m *TwoLevelModel) {
			c := m.ClusterModels[1].Multi.Coef
			c.Data = c.Data[:len(c.Data)-1]
		}},
		{"coef rows", "coef matrix is", func(m *TwoLevelModel) { m.ClusterModels[1].Multi.Coef.Rows++ }},
		{"coef cols", "coef matrix is", func(m *TwoLevelModel) { m.ClusterModels[1].Multi.Coef.Cols-- }},
		{"intercepts", "intercepts for", func(m *TwoLevelModel) {
			mt := m.ClusterModels[1].Multi
			mt.Intercept = mt.Intercept[:len(mt.Intercept)-1]
		}},
		{"no small scales", "0 small and", func(m *TwoLevelModel) { m.Cfg.SmallScales = nil }},
		{"few small scales", "at least four small scales", func(m *TwoLevelModel) { m.Cfg.SmallScales = []int{2, 4, 8} }},
		{"small scales unsorted", "SmallScales not strictly ascending", func(m *TwoLevelModel) {
			m.Cfg.SmallScales[0], m.Cfg.SmallScales[1] = m.Cfg.SmallScales[1], m.Cfg.SmallScales[0]
		}},
		{"large scale below small", "not below smallest large scale", func(m *TwoLevelModel) { m.Cfg.LargeScales[0] = 0 }},
		{"basis without terms", "basis model with 0 terms", func(m *TwoLevelModel) {
			m.Cfg.Mode = ModeBasis
			m.Cfg.Basis = nil
		}},
		{"basis max terms", "basis model with", func(m *TwoLevelModel) {
			m.Cfg.Mode = ModeBasis
			m.Cfg.MaxTerms = -1
		}},
		{"basis log exponent", "log exponent 1073741824 outside", func(m *TwoLevelModel) {
			m.Cfg.Basis[0].B = 1 << 30
		}},
		{"basis negative log exponent", "log exponent -1 outside", func(m *TwoLevelModel) {
			m.Cfg.Basis[0].B = -1
		}},
		{"basis terms", "basis terms, at most", func(m *TwoLevelModel) {
			m.Cfg.Basis = make([]scalefit.Term, maxBasisTerms+1)
		}},
		{"cv lambdas", "CVLambdas 1000000 above", func(m *TwoLevelModel) { m.Cfg.CVLambdas = 1e6 }},
		{"lasso max iter", "Lasso.MaxIter 1000000000 above", func(m *TwoLevelModel) { m.Cfg.Lasso.MaxIter = 1e9 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f modelFile
			if err := json.Unmarshal(raw.Bytes(), &f); err != nil {
				t.Fatal(err)
			}
			tc.damage(f.Model)
			damaged, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Read(bytes.NewReader(damaged))
			if err == nil {
				t.Fatalf("Read accepted the damaged file; Predict gives %v", got.Predict(p))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read = %v, want an error about %q", err, tc.want)
			}
		})
	}
}

// fuzzParams is an in-range smg2000 configuration (nx, ny, nz, iters),
// the application every seed model file was trained on.
var fuzzParams = []float64{240, 160, 96, 28}

// FuzzRead holds Read to its contract on arbitrary bytes: it returns an
// error, or a model on which Predict, PredictIntervalCov and
// AssignCluster run without panicking for an in-range configuration.
// The seed corpus (testdata/fuzz/FuzzRead) holds a small anchored file
// with centroids and a calibration, a basis file, damaged matrices of
// the anchored file, and basis files with damaged scale lists or basis
// settings that once panicked at the first prediction; `go test`
// replays it and `go test -fuzz` digs.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		params := make([]float64, len(m.ParamNames))
		for i := range params {
			params[i] = fuzzParams[i%len(fuzzParams)]
		}
		m.Predict(params)
		m.PredictIntervalCov(params, 0.9)
		m.AssignCluster(params)
	})
}
