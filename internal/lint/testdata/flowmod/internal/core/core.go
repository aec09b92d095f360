// Package core mirrors the real repro/internal/core persistence surface
// so the module-scoped analyzers resolve the same sink paths they match
// in the real tree.
package core

// ModelMeta is a persisted-metadata struct sink for clockflow.
type ModelMeta struct {
	Created string
	Note    string
}

// LastStamp is a package variable written through its qualified name.
var LastStamp string

// TwoLevelModel carries a Save call sink for clockflow.
type TwoLevelModel struct {
	Meta ModelMeta
}

// Save persists the model; any clock-derived argument is a finding.
func (m *TwoLevelModel) Save(path, note string) error {
	_ = path
	_ = note
	return nil
}
