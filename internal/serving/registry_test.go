package serving

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func saveFixture(t *testing.T, dir string) string {
	t.Helper()
	m, _ := testModel(t)
	path := filepath.Join(dir, "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRegistryLoadAndGet(t *testing.T) {
	path := saveFixture(t, t.TempDir())
	reg := NewRegistry(Source{Name: "smg", Path: path})
	if reg.Len() != 0 {
		t.Fatalf("fresh registry has %d entries", reg.Len())
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	e, ok := reg.Get("smg")
	if !ok || e.Version != 1 || e.Model == nil {
		t.Fatalf("Get(smg) = %+v, %v", e, ok)
	}
	// empty name resolves to the single loaded model
	if e2, ok := reg.Get(""); !ok || e2 != e {
		t.Fatalf("Get(\"\") did not resolve the single model")
	}
	if _, ok := reg.Get("nope"); ok {
		t.Fatal("Get(nope) succeeded")
	}
	if len(e.SHA256) != 64 {
		t.Fatalf("entry SHA256 = %q", e.SHA256)
	}
}

func TestRegistryUnchangedFileKeepsVersion(t *testing.T) {
	path := saveFixture(t, t.TempDir())
	reg := NewRegistry(Source{Name: "default", Path: path})
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	e1, _ := reg.Get("")
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	e2, _ := reg.Get("")
	if e2 != e1 {
		t.Fatalf("reload of unchanged file replaced the entry (v%d -> v%d)", e1.Version, e2.Version)
	}
	if reg.Reloads() != 2 {
		t.Fatalf("Reloads() = %d, want 2", reg.Reloads())
	}
}

func TestRegistryHotSwapBumpsVersion(t *testing.T) {
	path := saveFixture(t, t.TempDir())
	reg := NewRegistry(Source{Name: "default", Path: path})
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	e1, _ := reg.Get("")
	// Trailing whitespace changes the bytes but not the decoded model.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(" "); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	e2, _ := reg.Get("")
	if e2.Version != e1.Version+1 {
		t.Fatalf("version after content change: %d, want %d", e2.Version, e1.Version+1)
	}
	if e2.Model == e1.Model {
		t.Fatal("hot swap did not install a fresh model value")
	}
}

func TestRegistryReloadFailureKeepsServing(t *testing.T) {
	path := saveFixture(t, t.TempDir())
	reg := NewRegistry(Source{Name: "default", Path: path})
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	e1, _ := reg.Get("")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := reg.Reload()
	if err == nil {
		t.Fatal("reload of corrupt file reported no error")
	}
	if !strings.Contains(err.Error(), "default") {
		t.Fatalf("error %q does not name the failing model", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not carry the failing path", err)
	}
	e2, ok := reg.Get("")
	if !ok || e2 != e1 {
		t.Fatal("corrupt reload evicted the serving entry")
	}
	// The failure is observable after the fact.
	lr := reg.LastReload()
	if lr == nil || lr.OK || !strings.Contains(lr.Error, path) {
		t.Fatalf("LastReload() = %+v, want failed status naming %s", lr, path)
	}
	if err := m2Save(t, path); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if lr := reg.LastReload(); lr == nil || !lr.OK || lr.Error != "" {
		t.Fatalf("LastReload() after recovery = %+v, want OK", lr)
	}
}

// m2Save writes a fresh valid model fixture over path.
func m2Save(t *testing.T, path string) error {
	t.Helper()
	m, _ := testModel(t)
	return m.Save(path)
}

func TestRegistryPromotionObservability(t *testing.T) {
	m, _ := testModel(t)
	m.Meta.Generation = 7
	reg := NewRegistry()
	e := reg.Install("smg", m)
	if e.Generation != 7 {
		t.Fatalf("installed Generation = %d, want 7 from model metadata", e.Generation)
	}
	oreg := obs.NewRegistry("repro")
	s := New(reg, Options{Obs: oreg})

	// The hook keeps only the last event; it counts nothing.
	reg.NotePromotion(PromotionStatus{App: "smg", Generation: 6, Outcome: PromotionPromoted})
	if snap := s.snapshot(); snap.Pipeline == nil || snap.Pipeline.Promotions != 0 || snap.Pipeline.LastPromotion == nil {
		t.Fatalf("Pipeline snapshot after a bare hook call = %+v, want the event and no counts", snap.Pipeline)
	}

	// internal/pipeline reports a decision by counting it in
	// pipeline_cycles_total and then calling the hook.
	for _, st := range []PromotionStatus{
		{App: "smg", Generation: 7, Outcome: PromotionPromoted},
		{App: "smg", Generation: 8, Outcome: PromotionRejected, Detail: "worse"},
		{App: "smg", Generation: 7, Outcome: PromotionRollback},
	} {
		PipelineCycles(oreg, st.Outcome).Inc()
		reg.NotePromotion(st)
	}
	lp := reg.LastPromotion()
	if lp == nil || lp.Outcome != PromotionRollback || lp.Generation != 7 {
		t.Fatalf("LastPromotion() = %+v", lp)
	}

	// The whole story surfaces on the metrics snapshot.
	snap := s.snapshot()
	if len(snap.ModelStatus) != 1 || snap.ModelStatus[0].Generation != 7 {
		t.Fatalf("ModelStatus = %+v, want generation 7", snap.ModelStatus)
	}
	if snap.Pipeline == nil || snap.Pipeline.Promotions != 1 || snap.Pipeline.Rejections != 1 ||
		snap.Pipeline.Rollbacks != 1 || snap.Pipeline.LastPromotion == nil {
		t.Fatalf("Pipeline snapshot = %+v", snap.Pipeline)
	}
}

func TestRegistryInstallSurvivesReload(t *testing.T) {
	m, _ := testModel(t)
	path := saveFixture(t, t.TempDir())
	reg := NewRegistry(Source{Name: "disk", Path: path})
	reg.Install("mem", m)
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get("mem"); !ok {
		t.Fatal("installed entry dropped by Reload")
	}
	if reg.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", reg.Len())
	}
	names := []string{}
	for _, e := range reg.List() {
		names = append(names, e.Name)
	}
	if names[0] != "disk" || names[1] != "mem" {
		t.Fatalf("List() order %v", names)
	}
	// Reinstall bumps the version.
	if e := reg.Install("mem", m); e.Version != 2 {
		t.Fatalf("reinstall version = %d, want 2", e.Version)
	}
}

func TestRegistryMissingFileFirstLoad(t *testing.T) {
	reg := NewRegistry(Source{Name: "default", Path: filepath.Join(t.TempDir(), "absent.json")})
	if err := reg.Reload(); err == nil {
		t.Fatal("reload of missing file reported no error")
	}
	if reg.Len() != 0 {
		t.Fatalf("Len() = %d after failed first load", reg.Len())
	}
}
