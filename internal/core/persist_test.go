package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/scalefit"
	"repro/internal/treec"
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

// TestLassoConvergenceRoundtrip asserts each cluster's lasso
// certificate (the relative duality gap reached, the iterations at the
// chosen lambda, and the whole fit's sweeps) survives write/read, and
// that the fit certified every cluster within MaxIter.
func TestLassoConvergenceRoundtrip(t *testing.T) {
	m, _ := fitClustered(t)
	loaded := reread(t, rewrite(t, m))
	opt := m.Cfg.Lasso
	if opt.Tol == 0 {
		opt.Tol = 1e-9
	}
	for c, cm := range m.ClusterModels {
		want, got := cm.Multi, loaded.ClusterModels[c].Multi
		if want.Sweeps < want.Iterations || want.Iterations == 0 || want.Gap > opt.Tol {
			t.Fatalf("cluster %d: gap %g after %d iterations (%d sweeps in all)", c, want.Gap, want.Iterations, want.Sweeps)
		}
		if got.Gap != want.Gap || got.Iterations != want.Iterations || got.Sweeps != want.Sweeps {
			t.Fatalf("cluster %d: read gap %g, iterations %d, sweeps %d; wrote %g, %d, %d",
				c, got.Gap, got.Iterations, got.Sweeps, want.Gap, want.Iterations, want.Sweeps)
		}
	}
}

func TestSaveIntoMissingDirFails(t *testing.T) {
	m, _ := fitTiny(t)
	if err := m.Save(filepath.Join(t.TempDir(), "nope", "model.json")); err == nil {
		t.Fatal("Save into missing directory succeeded unexpectedly")
	}
}

// reread decodes raw into a fresh model, so a test may damage it
// without touching the fixture.
func reread(t *testing.T, raw []byte) *TwoLevelModel {
	t.Helper()
	m, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// rewrite encodes m as it stands, damage included: Write serializes
// without validating, so each damage reaches Read framed and
// checksummed like a real file.
func rewrite(t *testing.T, m *TwoLevelModel) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRejectsMalformedTrees feeds Read model files whose first
// forest's compiled tables have been damaged in one structural way
// each, behind a valid section frame and checksum. Traversal assumes
// every node is a child of an earlier internal node (so a walk moves
// forward and ends at a leaf) and every implied child exists, so each
// case must come back as an error naming the defect, without a panic.
func TestReadRejectsMalformedTrees(t *testing.T) {
	m, _ := fitTiny(t)
	raw := rewrite(t, m)
	// end0 is the end of tree 0's nodes in e.
	end0 := func(e *treec.Ensemble) int { return int(e.Roots[1]) }
	cases := []struct {
		name, want string
		damage     func(e *treec.Ensemble)
	}{
		{"empty", "empty forest", func(e *treec.Ensemble) {
			*e = treec.Ensemble{Features: e.Features}
		}},
		{"child before parent", "has no parent before it", func(e *treec.Ensemble) { e.Feature[0] = -1 }},
		{"shared root", "tree 0 spans nodes [0, 0)", func(e *treec.Ensemble) { e.Roots[1] = e.Roots[0] }},
		{"negative root", "tree 0 spans nodes [0, -1)", func(e *treec.Ensemble) { e.Roots[1] = -1 }},
		{"first root", "tree 0 starts at node 1", func(e *treec.Ensemble) { e.Roots[0] = 1 }},
		{"child past end", "past the tree's end", func(e *treec.Ensemble) { e.Feature[end0(e)-1] = 0 }},
		{"feature out of range", "splits on feature", func(e *treec.Ensemble) { e.Feature[0] = int32(e.Features) }},
		{"feature below leaf marker", "splits on feature -2", func(e *treec.Ensemble) { e.Feature[0] = -2 }},
		{"non-finite threshold", "non-finite value NaN", func(e *treec.Ensemble) { e.Thresh[0] = math.NaN() }},
		{"non-finite leaf", "non-finite value +Inf", func(e *treec.Ensemble) { e.Thresh[end0(e)-1] = math.Inf(1) }},
		{"unreachable node", "unreachable", func(e *treec.Ensemble) {
			at := end0(e)
			e.Feature = append(e.Feature[:at:at], append([]int32{-1}, e.Feature[at:]...)...)
			e.Thresh = append(e.Thresh[:at:at], append([]float64{1}, e.Thresh[at:]...)...)
			for i := 1; i < len(e.Roots); i++ {
				e.Roots[i]++
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dm := reread(t, raw)
			tc.damage(&dm.compiled[0].E)
			_, err := Read(bytes.NewReader(rewrite(t, dm)))
			if err == nil || !strings.Contains(err.Error(), "interpolation model 0: ") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read = %v, want an error about %q in interpolation model 0", err, tc.want)
			}
		})
	}
}

// TestReadRejectsDamagedFile damages the bytes of a model file around
// and inside its section frames. Every length is checked against the
// bytes present, and every payload against its checksum.
func TestReadRejectsDamagedFile(t *testing.T) {
	m, _ := fitTiny(t)
	raw := rewrite(t, m)
	hdrLen := int(binary.LittleEndian.Uint64(raw[12:]))
	forest0 := 12 + 8 + hdrLen + 4 // offset of forest 0's length field
	cases := []struct {
		name, want string
		damage     func(b []byte) []byte
	}{
		{"empty", "not a model file", func(b []byte) []byte { return nil }},
		{"bad magic", "not a model file", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"future version", "version 3, this build reads 2", func(b []byte) []byte { b[8] = 3; return b }},
		{"v1 json", "format v1", func(b []byte) []byte { return []byte(`{"version":1,"model":{}}`) }},
		{"truncated header", "header section declares", func(b []byte) []byte { return b[:12+8+hdrLen/2] }},
		{"truncated section", "forest 0 section declares", func(b []byte) []byte { return b[:forest0+100] }},
		{"missing section", "ends before the forest 1 section", func(b []byte) []byte {
			n := int(binary.LittleEndian.Uint64(b[forest0:]))
			return b[:forest0+8+n+4]
		}},
		{"length past end", "forest 0 section declares", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[forest0:], uint64(len(b)))
			return b
		}},
		{"huge length", "forest 0 section declares 18446744073709551615 bytes", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[forest0:], math.MaxUint64)
			return b
		}},
		{"bad header checksum", "header section checksum", func(b []byte) []byte { b[12+8+1] ^= 1; return b }},
		{"bad forest checksum", "forest 0 section checksum", func(b []byte) []byte { b[forest0+8+1] ^= 1; return b }},
		{"trailing bytes", "3 bytes after the last section", func(b []byte) []byte { return append(b, " x\n\x00"...) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.damage(bytes.Clone(raw))))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Read = %v, want an error about %q", err, tc.want)
			}
		})
	}
	if _, err := Read(bytes.NewReader(append(bytes.Clone(raw), " \n\t"...))); err != nil {
		t.Fatalf("Read rejected trailing whitespace: %v", err)
	}
}

// TestSaveReadSaveByteIdentical: the file is the compiled tables, so a
// saved, loaded and re-saved model is byte for byte the first file, and
// SaveSHA256 reports the hash of exactly the bytes on disk.
func TestSaveReadSaveByteIdentical(t *testing.T) {
	m, _ := fitClustered(t)
	dir := t.TempDir()
	first, second := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	sum, err := m.SaveSHA256(first)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(second); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(first)
	b, _ := os.ReadFile(second)
	if !bytes.Equal(a, b) {
		t.Fatalf("Save(Load(Save(m))) differs from Save(m): %d vs %d bytes", len(b), len(a))
	}
	if sum != sha256.Sum256(a) {
		t.Fatalf("SaveSHA256 = %x, file hashes to %x", sum, sha256.Sum256(a))
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
		{"cv lambdas one", "CVLambdas 1 below 2", func(m *TwoLevelModel) { m.Cfg.CVLambdas = 1 }},
		{"cv lambdas negative", "CVLambdas -1 below 2", func(m *TwoLevelModel) { m.Cfg.CVLambdas = -1 }},
		{"cv folds one", "CVFolds 1 below 2", func(m *TwoLevelModel) { m.Cfg.CVFolds = 1 }},
		{"lasso max iter", "Lasso.MaxIter 1000000000 above", func(m *TwoLevelModel) { m.Cfg.Lasso.MaxIter = 1e9 }},
		{"lasso tol", "Lasso.Tol -1e-09 is not", func(m *TwoLevelModel) { m.Cfg.Lasso.Tol = -1e-9 }},
		{"lasso gap", "cluster 1 lasso gap -0.5 is not", func(m *TwoLevelModel) { m.ClusterModels[1].Multi.Gap = -0.5 }},
		{"lasso sweeps", "cluster 1 lasso iterations", func(m *TwoLevelModel) { m.ClusterModels[1].Multi.Sweeps = -1 }},
		{"lasso iterations", "cluster 1 lasso iterations -1", func(m *TwoLevelModel) { m.ClusterModels[1].Multi.Iterations = -1 }},
		{"multi missing", `cluster 1 has no "multi" model`, func(m *TwoLevelModel) { m.ClusterModels[1].Multi = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dm := reread(t, raw.Bytes())
			tc.damage(dm)
			got, err := Read(bytes.NewReader(rewrite(t, dm)))
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
// AssignCluster run without panicking for an in-range configuration;
// either way it allocates in proportion to the input, never from a
// length or count the input merely declares. The seed corpus
// (testdata/fuzz/FuzzRead) holds format-v2 files: a small anchored file
// with centroids and a calibration, a basis file, damaged matrices of
// the anchored file, basis files with damaged scale lists or basis
// settings that once panicked at the first prediction, a basis file
// with a negative lasso tolerance and an anchored one with a negative
// lasso gap, and damaged section frames and forest tables (v2-*), plus
// a format-v1 file;
// `go test` replays it and `go test -fuzz` digs.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		// A loaded model holds its tables (16 bytes per 12-byte node on
		// file) and the pointer trees rebuilt from them (40 bytes per
		// node); reading the input and decoding the header add a few
		// times its size.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+1<<20); got > limit {
			t.Fatalf("Read of %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
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

// TestFuzzReadSeedsNamedErrors replays the FuzzRead seed corpus, which
// FuzzRead itself only holds to "no panic": the two intact files load,
// and every damaged one fails with the error naming its damage.
func TestFuzzReadSeedsNamedErrors(t *testing.T) {
	want := map[string]string{
		"anchored":                             "",
		"anchored-negative-lasso-gap":          "cluster 0 lasso gap -0.5 is not",
		"basis":                                "",
		"basis-negative-lasso-tol":             "Lasso.Tol -1e-09 is not",
		"basis-huge-log-exponent":              "log exponent 1073741824 outside",
		"basis-large-scale-below-small":        "not below smallest large scale 0",
		"basis-no-small-scales":                "0 small and 3 large scales",
		"basis-one-small-scale":                "at least four small scales, got 1",
		"basis-single-task-negative-max-terms": "MaxTerms -1",
		"basis-single-task-no-terms":           "basis model with 0 terms",
		"centroids-cols":                       "centroids matrix is 3x7, want 3x6",
		"centroids-data-short":                 "centroids matrix holds 17 values",
		"coef-data-short":                      "coef matrix holds 17 values",
		"coef-rows":                            "coef matrix is 7x3, want 6x3",
		"v1-anchored":                          "format v1",
		"v2-bad-checksum":                      "forest 0 section checksum",
		"v2-child-before-parent":               "node 1 has no parent before it",
		"v2-feature-out-of-range":              "splits on feature 4, outside [0, 4)",
		"v2-node-count":                        "a child lies past the tree's end",
		"v2-section-length-huge":               "forest 0 section declares 18446744073709551612 bytes",
		"v2-section-length-past-eof":           "forest 0 section declares 4118 bytes",
		"v2-truncated-section":                 "forest 0 section declares 176 bytes, 88 remain",
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzRead")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("corpus holds %d seeds, this test knows %d", len(entries), len(want))
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// A seed file is "go test fuzz v1" and one []byte("...") line.
		_, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", e.Name(), err)
		}
		w, ok := want[e.Name()]
		if !ok {
			t.Errorf("seed %s: no expected outcome", e.Name())
			continue
		}
		_, err = Read(strings.NewReader(data))
		switch {
		case w == "" && err != nil:
			t.Errorf("seed %s: %v, want a model", e.Name(), err)
		case w != "" && (err == nil || !strings.Contains(err.Error(), w)):
			t.Errorf("seed %s: Read = %v, want an error about %q", e.Name(), err, w)
		}
	}
}
