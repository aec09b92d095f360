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
