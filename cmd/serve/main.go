// Command serve exposes trained two-level models over an HTTP JSON API.
//
// Usage:
//
//	serve -model model.json
//	serve -addr :8080 -model smg=smg.json -model lulesh=lulesh.json -cache 8192
//
// Each -model flag is either a bare path (served under the name
// "default") or name=path. Endpoints:
//
//	POST /v1/predict   {"model":"smg","configs":[[...],[...]],"at":512,"interval":0.9,"small":true}
//	POST /v1/observe   {"model":"smg","params":[...],"scale":512,"runtime":12.3} — measured runtimes
//	GET  /v1/models    loaded models, versions, training and calibration metadata
//	GET  /v1/loadstatus admission-controller snapshot (limit, queue, shed counters)
//	POST /v1/reload    re-read every model file from disk (also SIGHUP)
//	GET  /healthz      liveness; 503 until a model is loaded or once draining starts
//	GET  /metrics      JSON counters (default) or Prometheus text format 0.0.4
//	                   when the Accept header asks for text/plain
//	GET  /debug/traces last-N / slowest-N request and pipeline-run traces
//
// Every request carries an X-Request-Id (client-supplied or minted);
// -ops-addr starts a second listener with net/http/pprof, /debug/traces,
// and an unconditional Prometheus /metrics, kept off the traffic port.
// Logs are structured JSON on stderr (log/slog), leveled by -log-level.
//
// /v1/predict runs behind an admission controller: a bounded queue with
// priority-aware shedding (batches shed first, then interval requests,
// then point predictions) and an AIMD-adapted concurrency limit that
// tracks -load-target (-load-fixed pins it at -load-limit instead).
// Clients may cap their wait with an X-Deadline-Ms header; requests the
// server cannot answer in budget get an immediate 503 with Retry-After.
// When the queue saturates the server degrades to cache-only answers
// until the backlog drains.
//
// Observed runtimes feed per-scale rolling windows of empirical interval
// coverage; when a model's coverage falls below -drift-floor, the
// embedded pipeline (when enabled) is kicked to retrain it, and the
// promotion journal records the drift diagnosis as the trigger.
//
// SIGHUP hot-reloads the model files without dropping in-flight
// requests; SIGINT/SIGTERM shut down gracefully, draining for -drain.
//
// With -pipeline-store and -pipeline-dir, the continuous-training
// pipeline runs inside the server: active generations are installed at
// startup, and every -pipeline-interval the store is checked for new
// records, due applications are retrained, gated against the serving
// incumbent, and promoted live (visible on /v1/models and /metrics
// without a restart). -model then becomes optional.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/loadctl"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/serving"
	"repro/internal/uncertainty"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var models multiFlag
	flag.Var(&models, "model", "model to serve: path or name=path (repeatable)")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		opsAddr  = flag.String("ops-addr", "", "operations listener (pprof, /debug/traces, Prometheus /metrics); empty disables")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn, error")
		traceCap = flag.Int("trace-capacity", obs.DefaultTraceCapacity, "finished request/pipeline traces retained for /debug/traces (0 = default)")
		cache    = flag.Int("cache", serving.DefaultCacheSize, "prediction cache capacity (0 disables)")
		drain    = flag.Duration("drain", serving.DefaultDrainTimeout, "graceful-shutdown drain timeout")

		pipeStore    = flag.String("pipeline-store", "", "run-record store directory; enables the embedded training pipeline")
		pipeDir      = flag.String("pipeline-dir", "", "pipeline generations directory (model files + journal)")
		pipeInterval = flag.Duration("pipeline-interval", time.Minute, "how often the pipeline checks for due retrains (0 disables the loop)")
		pipeMinNew   = flag.Int("pipeline-min-new", 1, "retrain an app once this many new records arrived")
		pipeSlack    = flag.Float64("pipeline-slack", 0.05, "allowed relative MAPE regression before rejecting a candidate")
		pipeHoldout  = flag.Int("pipeline-holdout-denom", 5, "hold out 1/D of configurations for the promotion gate")
		pipeSeed     = flag.Uint64("pipeline-seed", 1, "base random seed for pipeline retraining")

		loadOff    = flag.Bool("load-off", false, "disable admission control entirely")
		loadLimit  = flag.Int("load-limit", 0, "initial (or, with -load-fixed, permanent) concurrency limit (0 = default 64)")
		loadFixed  = flag.Bool("load-fixed", false, "pin the concurrency limit instead of adapting it (AIMD off)")
		loadTarget = flag.Duration("load-target", 0, "AIMD latency setpoint (0 = default 100ms)")
		loadQueue  = flag.Int("load-queue", 0, "admission queue capacity (0 = default 128)")
		deadline   = flag.Duration("deadline", 0, "default per-request deadline budget when the client sends no X-Deadline-Ms (0 = unbounded)")
		maxDead    = flag.Duration("max-deadline", 0, "cap on client-supplied deadline budgets (0 = default 30s)")
		synthDelay = flag.Duration("synthetic-delay", 0, "TESTING ONLY: artificial service time added to every cache miss, for load/saturation demos")

		driftWindow   = flag.Int("drift-window", 256, "rolling window length per (model, scale) for coverage tracking")
		driftMinObs   = flag.Int("drift-min-obs", 20, "observations a window needs before its coverage is judged")
		driftCoverage = flag.Float64("drift-coverage", 0.9, "nominal interval coverage observations are scored against")
		driftFloor    = flag.Float64("drift-floor", 0.75, "empirical-coverage floor below which retraining is kicked")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel))
	slog.SetDefault(logger)

	if len(models) == 0 && *pipeStore == "" {
		fatalf("at least one -model is required (or enable the pipeline with -pipeline-store)")
	}
	sources, err := parseSources(models)
	if err != nil {
		fatalf("%v", err)
	}

	reg := serving.NewRegistry(sources...)
	if err := reg.Reload(); err != nil {
		fatalf("loading models: %v", err)
	}

	// One metrics registry and one trace ring span the whole process:
	// serving handlers, the admission controller's gauges, and the
	// embedded pipeline's cycle spans all land in the same /metrics
	// exposition and /debug/traces ring.
	oreg := obs.NewRegistry("repro")
	tracer := obs.NewTracer(*traceCap)

	p, err := setupPipeline(logger, reg, *pipeStore, *pipeDir, pipeline.Config{
		Core:          core.DefaultConfig(),
		Seed:          *pipeSeed,
		Gate:          pipeline.GateConfig{HoldoutDenominator: *pipeHoldout, AllowedRegression: *pipeSlack},
		MinNewRecords: *pipeMinNew,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if p != nil {
		p.EnableObs(oreg, tracer)
	}
	for _, e := range reg.List() {
		from := e.Path
		if from == "" {
			from = "pipeline journal"
		}
		logger.Info("model loaded", "model", e.Name, "version", e.Version,
			"gen", e.Generation, "from", from, "params", len(e.Model.ParamNames), "mode", string(e.Model.Mode()))
	}

	opts := serving.Options{
		CacheSize: *cache,
		Obs:       oreg,
		Tracer:    tracer,
		Load: loadctl.Config{
			InitialLimit:  *loadLimit,
			FixedLimit:    *loadFixed,
			TargetLatency: *loadTarget,
			QueueCapacity: *loadQueue,
		},
		DisableLoadControl: *loadOff,
		DefaultDeadline:    *deadline,
		MaxDeadline:        *maxDead,
		SyntheticDelay:     *synthDelay,
		Drift: uncertainty.DriftConfig{
			Window:          *driftWindow,
			MinObservations: *driftMinObs,
			Coverage:        *driftCoverage,
			Floor:           *driftFloor,
		},
	}
	if p != nil {
		// Close the loop: a coverage breach on a served model kicks its
		// retraining cycle; the journal records the diagnosis and the
		// request ID of the observation that tipped the floor.
		opts.OnDrift = func(model, reason, origin string) {
			logger.Warn("drift breach, kicking retrain", "model", model, "reason", reason, "origin", origin)
			p.Kick(model, reason, origin)
		}
	} else {
		opts.OnDrift = func(model, reason, origin string) {
			logger.Warn("drift breach, no pipeline attached", "model", model, "reason", reason, "origin", origin)
		}
	}
	srv := serving.New(reg, opts)
	g := serving.NewGraceful(*addr, srv.Handler(), *drain)
	// Flip /healthz to 503 "draining" before the listener closes so load
	// balancers stop routing here while in-flight requests finish.
	g.PreDrain = srv.BeginDrain

	if *opsAddr != "" {
		// The ops surface lives on its own listener so profiling and trace
		// inspection are never exposed on (or contended with) the traffic
		// port. It additionally serves the Prometheus exposition, for
		// scrapers that should not touch the serving socket at all.
		mux := obs.OpsMux(srv.Tracer())
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = oreg.WritePrometheus(w)
		})
		go func() {
			logger.Info("ops listener up", "addr", *opsAddr)
			if err := http.ListenAndServe(*opsAddr, mux); err != nil {
				logger.Error("ops listener failed", "err", err.Error())
			}
		}()
	}

	stopPipeline := make(chan struct{})
	if p != nil && *pipeInterval > 0 {
		go runPipelineLoop(logger, p, *pipeInterval, stopPipeline)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		for sig := range sigCh {
			if sig == syscall.SIGHUP {
				if err := reg.Reload(); err != nil {
					logger.Error("reload failed", "err", err.Error())
				} else {
					logger.Info("models reloaded", "count", reg.Len())
				}
				continue
			}
			logger.Info("draining", "signal", sig.String(), "timeout", drain.String())
			close(stopPipeline)
			if err := g.Shutdown(); err != nil {
				logger.Error("shutdown failed", "err", err.Error())
			}
			return
		}
	}()

	logger.Info("serving", "models", reg.Len(), "addr", *addr, "cache", *cache)
	if err := g.ListenAndServe(); err != nil {
		fatalf("%v", err)
	}
	logger.Info("shut down cleanly")
}

// parseSources expands -model flags into registry sources, defaulting a
// bare path's name to "default" for a single model and to the file's
// base name otherwise.
func parseSources(models []string) ([]serving.Source, error) {
	sources := make([]serving.Source, 0, len(models))
	seen := map[string]bool{}
	for _, spec := range models {
		var src serving.Source
		if name, path, ok := strings.Cut(spec, "="); ok && name != "" {
			src = serving.Source{Name: name, Path: path}
		} else if len(models) == 1 {
			src = serving.Source{Name: "default", Path: spec}
		} else {
			base := filepath.Base(spec)
			src = serving.Source{Name: strings.TrimSuffix(base, filepath.Ext(base)), Path: spec}
		}
		if src.Path == "" {
			return nil, fmt.Errorf("-model %q: empty path", spec)
		}
		if seen[src.Name] {
			return nil, fmt.Errorf("-model %q: duplicate model name %q", spec, src.Name)
		}
		seen[src.Name] = true
		sources = append(sources, src)
	}
	return sources, nil
}

// setupPipeline opens the embedded continuous-training pipeline and
// installs every app's active generation into the registry. Returns nil
// when -pipeline-store is unset.
func setupPipeline(logger *slog.Logger, reg *serving.Registry, storeDir, gensDir string, cfg pipeline.Config) (*pipeline.Pipeline, error) {
	if storeDir == "" {
		return nil, nil
	}
	if gensDir == "" {
		return nil, fmt.Errorf("-pipeline-store requires -pipeline-dir")
	}
	store, err := pipeline.OpenStore(storeDir)
	if err != nil {
		return nil, err
	}
	p, err := pipeline.New(store, gensDir, cfg, reg)
	if err != nil {
		return nil, err
	}
	logTornTails(logger, p)
	if t := p.Journal().Torn(); t != nil {
		logger.Warn("pipeline journal: cut off a torn last line", "detail", t.String())
	}
	if err := p.InstallActive(); err != nil {
		return nil, fmt.Errorf("installing active generations: %w", err)
	}
	logger.Info("pipeline attached", "store", storeDir, "generations", gensDir, "apps", len(store.Apps()))
	return p, nil
}

// logTornTails logs each torn last line (an append a crash cut short)
// the store has cut off a partition file since the last call.
func logTornTails(logger *slog.Logger, p *pipeline.Pipeline) {
	for _, t := range p.Store().TornTails() {
		logger.Warn("pipeline store: cut off a torn last line", "detail", t.String())
	}
}

// runPipelineLoop periodically sweeps the store for due retrains until
// stop closes. Cycle errors are logged, not fatal: the server keeps
// serving the incumbents.
func runPipelineLoop(logger *slog.Logger, p *pipeline.Pipeline, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		// Records may have been ingested by another process (pipeline
		// ingest); re-index before checking triggers.
		if err := p.Store().Refresh(); err != nil {
			logger.Error("pipeline store refresh failed", "err", err.Error())
			continue
		}
		logTornTails(logger, p)
		//lint:allow clockflow -- the retrain loop stamps journal entries with the decision time; the audit trail is operational metadata, not experiment output
		now := time.Now().UTC().Format(time.RFC3339)
		results, err := p.RunAll(now)
		for _, res := range results {
			switch {
			case res.Skipped:
				// Quiet: nothing due is the steady state.
			case res.Promoted:
				logger.Info("pipeline promoted", "app", res.App, "gen", res.Gen, "reason", res.Gate.Reason, "origin", res.Origin)
			default:
				logger.Info("pipeline rejected", "app", res.App, "gen", res.Gen, "reason", res.Gate.Reason, "origin", res.Origin)
			}
		}
		if err != nil {
			logger.Error("pipeline sweep failed", "err", err.Error())
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
	os.Exit(1)
}
