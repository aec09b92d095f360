// Package pipeline mirrors the real repro/internal/pipeline journal and
// store surface for the clockflow sink table.
package pipeline

// Entry is a persisted journal record: a struct sink for clockflow.
type Entry struct {
	Time string
	Op   string
}

// Journal persists entries; Append is a call sink for clockflow.
type Journal struct {
	entries []Entry
}

// Append records one entry.
func (j *Journal) Append(e Entry) error {
	j.entries = append(j.entries, e)
	return nil
}

// Table stands in for the dataset table the store imports.
type Table struct {
	App  string
	Runs []float64
}

// Store persists run records; ImportTable, the batch write path, is a
// call sink for clockflow.
type Store struct {
	tables []*Table
}

// ImportTable appends a whole table as one batch.
func (s *Store) ImportTable(t *Table) (added, skipped int, err error) {
	s.tables = append(s.tables, t)
	return len(t.Runs), 0, nil
}
