// Command pipeline drives the continuous-training loop from the command
// line: ingest run records into the store, run gated retrain cycles,
// inspect the audit journal, and roll back a bad promotion.
//
// Usage:
//
//	pipeline ingest -store runs/ history.csv [more.csv ...]
//	pipeline run -store runs/ -dir gens/ [-app smg2000] [-kick] [-min-new 25]
//	pipeline status -store runs/ -dir gens/
//	pipeline rollback -store runs/ -dir gens/ -app smg2000
//
// The store directory holds one append-only JSONL file per application;
// the generations directory holds generation-numbered model files plus
// journal.jsonl, the audit log every subcommand reads and appends.
// Journal timestamps are stamped here, at the process boundary —
// internal/pipeline itself never reads the clock, so cycle outputs stay
// reproducible byte for byte.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// logger carries operational events (cycle outcomes, failures) as
// structured JSON on stderr; subcommand result listings stay plain
// stdout for piping. PIPELINE_LOG_LEVEL overrides the default info.
var logger = obs.NewLogger(os.Stderr, obs.ParseLevel(os.Getenv("PIPELINE_LOG_LEVEL")))

func main() {
	slog.SetDefault(logger)
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "ingest":
		cmdIngest(args)
	case "run":
		cmdRun(args)
	case "status":
		cmdStatus(args)
	case "rollback":
		cmdRollback(args)
	default:
		fmt.Fprintf(os.Stderr, "pipeline: unknown subcommand %q\n\n", cmd)
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: pipeline <subcommand> [flags]

subcommands:
  ingest    import history CSVs into the run-record store
  run       run one gated retrain cycle per due application
  status    show store contents, active generations, and journal tail
  rollback  revert an application to its previously promoted generation
`)
	os.Exit(2)
}

// stamp is the journal timestamp for this invocation: wall-clock time is
// read exactly once, at the process boundary. The journal records WHEN an
// operational decision happened (audit trail), not experiment output; the
// artifacts the pipeline trains and promotes stay clock-free.
//
//lint:allow clockflow -- journal timestamps are the audit trail's payload; the clock is read once here and nowhere else in this command
func stamp() string { return time.Now().UTC().Format(time.RFC3339) }

func cmdIngest(args []string) {
	fs := flag.NewFlagSet("pipeline ingest", flag.ExitOnError)
	storeDir := fs.String("store", "", "run-record store directory (required)")
	parse(fs, args)
	if *storeDir == "" || fs.NArg() == 0 {
		fatalf("ingest needs -store and at least one CSV argument")
	}
	store := openStore(*storeDir)
	for _, path := range fs.Args() {
		added, skipped, err := store.ImportCSV(path)
		if err != nil {
			fatalf("importing %s: %v", path, err)
		}
		fmt.Printf("%s: %d records ingested, %d duplicates skipped\n", path, added, skipped)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("pipeline run", flag.ExitOnError)
	var (
		storeDir = fs.String("store", "", "run-record store directory (required)")
		gensDir  = fs.String("dir", "", "generations directory: model files + journal (required)")
		app      = fs.String("app", "", "only this application (default: every app in the store)")
		kick     = fs.Bool("kick", false, "force a cycle even if too few new records arrived")
		minNew   = fs.Int("min-new", 1, "retrain once this many new records arrived per app")
		seed     = fs.Uint64("seed", 1, "base random seed (per-cycle seed derived from app+generation)")
		holdout  = fs.Int("holdout-denom", 5, "hold out 1/D of configurations for the gate")
		slack    = fs.Float64("slack", 0.05, "allowed relative MAPE regression before rejecting")
		small    = fs.String("small", "", "small scales, comma-separated (default: core defaults)")
		large    = fs.String("large", "", "target large scales, comma-separated (default: core defaults)")
		trees    = fs.Int("trees", 0, "trees per interpolation forest (0 = core default)")
	)
	parse(fs, args)
	if *storeDir == "" || *gensDir == "" {
		fatalf("run needs -store and -dir")
	}

	cfg := pipeline.Config{
		Core:          core.DefaultConfig(),
		Seed:          *seed,
		Gate:          pipeline.GateConfig{HoldoutDenominator: *holdout, AllowedRegression: *slack},
		MinNewRecords: *minNew,
	}
	var err error
	if *small != "" {
		if cfg.Core.SmallScales, err = cliutil.ParseScales(*small); err != nil {
			fatalf("-small: %v", err)
		}
	}
	if *large != "" {
		if cfg.Core.LargeScales, err = cliutil.ParseScales(*large); err != nil {
			fatalf("-large: %v", err)
		}
	}
	if *trees > 0 {
		cfg.Core.Forest.Trees = *trees
	}

	store := openStore(*storeDir)
	p := openPipeline(store, *gensDir, cfg)

	apps := store.Apps()
	if *app != "" {
		apps = []string{*app}
	}
	if len(apps) == 0 {
		fatalf("store %s has no applications", *storeDir)
	}
	for _, a := range apps {
		if *kick {
			p.Kick(a, "", "")
		}
		res, err := p.RunOnce(a, stamp())
		if err != nil {
			fatalf("%v", err)
		}
		switch {
		case res.Skipped:
			logger.Info("cycle skipped", "app", a, "reason", res.Reason)
		case res.Promoted:
			logger.Info("cycle promoted", "app", a, "gen", res.Gen, "path", res.Path,
				"reason", res.Gate.Reason, "origin", res.Origin)
		default:
			logger.Info("cycle rejected", "app", a, "gen", res.Gen,
				"reason", res.Gate.Reason, "origin", res.Origin)
		}
	}
}

func cmdStatus(args []string) {
	fs := flag.NewFlagSet("pipeline status", flag.ExitOnError)
	var (
		storeDir = fs.String("store", "", "run-record store directory (required)")
		gensDir  = fs.String("dir", "", "generations directory (required)")
		tail     = fs.Int("tail", 5, "journal entries to show")
	)
	parse(fs, args)
	if *storeDir == "" || *gensDir == "" {
		fatalf("status needs -store and -dir")
	}
	store := openStore(*storeDir)
	p := openPipeline(store, *gensDir, pipeline.Config{Core: core.DefaultConfig()})

	for _, a := range store.Apps() {
		names, _ := store.ParamNames(a)
		line := fmt.Sprintf("%s: %d records, %d params", a, store.Count(a), len(names))
		if gen, ok := p.Journal().Active(a); ok {
			line += fmt.Sprintf(", active gen %d", gen)
			if m, err := core.Load(p.ModelPath(a, gen)); err != nil {
				line += fmt.Sprintf(" (unreadable: %v)", err)
			} else if _, total := m.Meta.Calibration.Samples(); total > 0 {
				line += fmt.Sprintf(", calibrated (%d residuals)", total)
			} else {
				line += ", uncalibrated"
			}
		} else {
			line += ", never promoted"
		}
		fmt.Println(line)
	}

	entries := p.Journal().Entries()
	if len(entries) == 0 {
		fmt.Println("journal: empty")
		return
	}
	fmt.Printf("journal: %d entries, next generation %d\n", len(entries), p.Journal().NextGen())
	start := len(entries) - *tail
	if start < 0 {
		start = 0
	}
	for _, e := range entries[start:] {
		when := e.Time
		if when == "" {
			when = "-"
		}
		fmt.Printf("  gen %d %s %s [%s] %s\n", e.Gen, e.App, e.Event, when, e.Reason)
	}
}

func cmdRollback(args []string) {
	fs := flag.NewFlagSet("pipeline rollback", flag.ExitOnError)
	var (
		storeDir = fs.String("store", "", "run-record store directory (required)")
		gensDir  = fs.String("dir", "", "generations directory (required)")
		app      = fs.String("app", "", "application to roll back (required)")
	)
	parse(fs, args)
	if *storeDir == "" || *gensDir == "" || *app == "" {
		fatalf("rollback needs -store, -dir, and -app")
	}
	store := openStore(*storeDir)
	p := openPipeline(store, *gensDir, pipeline.Config{Core: core.DefaultConfig()})
	gen, err := p.Rollback(*app, stamp())
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("%s: rolled back to generation %d\n", *app, gen)
}

// openStore opens the run-record store, logging any torn last line (an
// append a crash cut short) it had to cut off a partition.
func openStore(dir string) *pipeline.Store {
	store, err := pipeline.OpenStore(dir)
	if err != nil {
		fatalf("%v", err)
	}
	for _, t := range store.TornTails() {
		logger.Warn("store: cut off a torn last line", "detail", t.String())
	}
	return store
}

// openPipeline opens the pipeline over store and the generations
// directory, logging a torn last line cut off the journal.
func openPipeline(store *pipeline.Store, dir string, cfg pipeline.Config) *pipeline.Pipeline {
	p, err := pipeline.New(store, dir, cfg, nil)
	if err != nil {
		fatalf("%v", err)
	}
	if t := p.Journal().Torn(); t != nil {
		logger.Warn("journal: cut off a torn last line", "detail", t.String())
	}
	return p
}

func parse(fs *flag.FlagSet, args []string) {
	// ExitOnError makes the error branch unreachable.
	_ = fs.Parse(args)
}

func fatalf(format string, args ...interface{}) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
