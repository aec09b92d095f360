package main

import (
	"repro/internal/core"
	"repro/internal/pipeline"
)

// stampEntry builds a journal entry from a package variable that another
// file of this command sets from the clock.
func stampEntry() pipeline.Entry {
	return pipeline.Entry{Time: core.LastStamp}
}
