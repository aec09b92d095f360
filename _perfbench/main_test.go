package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

// bodies returns every request body of one workload's fixed-rate window
// for a seed, in schedule order, with its due time.
func bodies(t *testing.T, in *inputs, w *workload) [][]byte {
	t.Helper()
	tr := newTraffic(in, w)
	reqs, err := tr.schedule((&runner{seed: in.seed}).stream(100), w.rate, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, r := range reqs {
		out = append(out, []byte(r.due.String()), r.body)
	}
	for _, r := range tr.warmup() {
		out = append(out, r.body)
	}
	for k := 0; k < in.sz.Rounds; k++ {
		runs, err := in.roundRecords(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	a, err := newInputs(7, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newInputs(7, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newInputs(8, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.csv, b.csv) {
		t.Error("the same seed gave different history CSVs")
	}
	if bytes.Equal(a.csv, c.csv) {
		t.Error("different seeds gave the same history CSV")
	}
	for _, w := range workloads {
		ba, bb, bc := bodies(t, a, w), bodies(t, b, w), bodies(t, c, w)
		if !bytes.Equal(bytes.Join(ba, nil), bytes.Join(bb, nil)) {
			t.Errorf("%s: the same seed gave different requests", w.name)
		}
		if bytes.Equal(bytes.Join(ba, nil), bytes.Join(bc, nil)) {
			t.Errorf("%s: different seeds gave the same requests", w.name)
		}
	}
}

func TestMissConfigsNeverRepeat(t *testing.T) {
	in, err := newInputs(3, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("predict-miss")
	if err != nil {
		t.Fatal(err)
	}
	tr := newTraffic(in, w)
	reqs, err := tr.schedule((&runner{seed: 3}).stream(100), w.rate, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, c := range in.history.Runs {
		seen[key(c.Params)] = true
	}
	for _, r := range reqs {
		for _, c := range r.configs {
			if seen[key(c)] {
				t.Fatalf("%s repeats configuration %v", r.id, c)
			}
			seen[key(c)] = true
		}
	}
}

func key(c []float64) string {
	b, _ := json.Marshal(c) // a []float64 of finite values always encodes
	return string(b)
}

// manifest is the part of BENCHMARK.json the tests check.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestNamesAndUnits(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), m.EndToEnd...), m.PerLayer...) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || seen[s.Name] {
			t.Errorf("metric %q with unit %q is malformed or repeated", s.Name, s.Unit)
		}
		seen[s.Name] = true
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %q: better is %q", s.Name, s.Better)
		}
	}
	for _, s := range m.EndToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	var names, ours []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	slices.Sort(names)
	slices.Sort(ours)
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, ours)
	}
}

// TestSmoke runs a tiny configuration of every workload, end to end and
// traced, against freshly built binaries, and checks that each run is
// correct and reports exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"serve", "pipeline"} {
		build := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd)
		build.Dir = ".."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	m := readManifest(t)
	for _, w := range workloads {
		for trace, want := range [][]metricSpec{m.EndToEnd, m.PerLayer} {
			res, notes, err := run(w.name, 1, 1, trace, bin, t.TempDir(), true)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct {
				t.Errorf("%s trace %d: incorrect run: %v", w.name, trace, notes)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, s := range want {
				got, ok := res.Metrics[s.Name]
				if !ok || got.Unit != s.Unit {
					t.Errorf("%s trace %d: metric %q reported as %+v, want unit %q", w.name, trace, s.Name, got, s.Unit)
				}
			}
		}
	}
}
