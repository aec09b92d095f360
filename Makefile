# Tier-1 verification and developer shortcuts. `make verify` is the
# gate every PR must keep green (recorded in ROADMAP.md).

GO ?= go

.PHONY: verify build vet vet-perfbench fmt lint lint-audit lint-sarif test race fuzz bench-paper bench-serving clean

verify: build vet vet-perfbench fmt lint lint-audit race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# _perfbench is a module of its own (the BENCHMARK.json driver) that
# imports this module's packages, so `go vet ./...` above skips it.
vet-perfbench:
	cd _perfbench && $(GO) vet ./...

# Formatting gate: fails when any file is not gofmt-clean (`gofmt -l .`
# lists them).
fmt:
	test -z "$$(gofmt -l .)"

# Project-specific static analysis (determinism, numerical safety, IO
# hygiene); see README "Static analysis" and internal/lint. Exit 1 on any
# finding, so verify fails when a new violation is introduced.
lint:
	$(GO) run ./cmd/repolint ./...

# Suppression audit: every //lint:allow must name a real analyzer and
# suppress at least one live finding. Stale directives fail verify so
# the allow count can only shrink as code is cleaned up.
lint-audit:
	$(GO) run ./cmd/repolint -audit

# Machine-readable findings for code-scanning upload (CI artifact).
lint-sarif:
	$(GO) run ./cmd/repolint -q -format sarif ./... > repolint.sarif || true

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every native fuzz target, past its committed seed corpus, for 30 s
# each. `go test -fuzz` takes one target per run. The minimize cap
# keeps shrinking one new interesting input (up to the 60 s default for
# a ~7 KB model file) from eating a short run.
FUZZ = $(GO) test -run '^$$' -fuzztime 30s -fuzzminimizetime 5s

fuzz:
	$(FUZZ) -fuzz '^FuzzRead$$' ./internal/core/
	$(FUZZ) -fuzz '^FuzzCompiledForestPredict$$' ./internal/treec/
	$(FUZZ) -fuzz '^FuzzReadPartition$$' ./internal/pipeline/
	$(FUZZ) -fuzz '^FuzzOpenJournal$$' ./internal/pipeline/
	$(FUZZ) -fuzz '^FuzzMultiTaskLasso$$' ./internal/linmod/

# Reduced-size reconstruction of every table/figure plus the core
# micro-benchmarks; see bench_test.go.
bench-paper:
	$(GO) test -bench=. -benchtime=1x .

# Serving-path latency (cache hit vs. miss), for manual timing. The
# performance ledger is BENCHMARK.json (bash _perfbench/run.sh).
bench-serving:
	$(GO) test -bench=BenchmarkServePredict -run=NONE ./internal/serving/

clean:
	$(GO) clean ./...
