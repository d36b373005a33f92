# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race test-short conformance vet lint lint-fix bench bench-kernel profile figures figures-identical validate examples fuzz soak serve load serve-smoke clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis suite (see docs/LINTING.md) on top of go vet.
lint: vet
	$(GO) run ./cmd/tibfit-lint ./...

# Apply the suite's suggested fixes in place (currently errwrap's
# sentinel-comparison rewrite); findings without a machine fix still fail.
lint-fix:
	$(GO) run ./cmd/tibfit-lint -fix ./...

test:
	$(GO) test ./...

# Full tree under the race detector; internal/experiment/parallel.go and
# internal/trace are the packages that actually exercise it.
test-race:
	$(GO) test -race ./...

# Short mode skips the million-event kernel stress test.
test-short:
	$(GO) test -short ./...

# Scheme-conformance harness under the race detector: every registered
# decision scheme against the trust-bound/isolation/purity/determinism
# contract, plus per-scheme campaign byte-identity across worker counts
# (see docs/SCHEMES.md).
conformance:
	$(GO) test -race -count=1 ./internal/decision/
	$(GO) test -race -count=1 -run 'TestScheme' ./internal/experiment/

# The repository benchmark (see perfbench/README.md): every workload at
# seed 1, untraced and traced, 5 s each. perfbench exits 0 even when a
# check fails, so the target fails unless each run's last line reports
# "correct":true. Micro-benchmarks are plain `go test -bench` bodies in
# each package's bench_test.go.
bench:
	@for w in paper-campaign field-100k serve-ingest serve-decide; do \
		for t in 0 1; do \
			echo "== perfbench $$w --trace $$t"; \
			out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 5 --trace $$t); \
			printf '%s\n' "$$out"; \
			case "$$(printf '%s\n' "$$out" | tail -n 1)" in \
			*'"correct":true'*) ;; \
			*) echo "perfbench $$w --trace $$t: run incorrect" >&2; exit 1 ;; \
			esac; \
		done; \
	done

# Just the kernel scheduler benchmarks: timer-churn populations on the
# calendar queue vs its heap oracle, and the calendar's skewed-horizon
# resize stress (see docs/PERFORMANCE.md).
bench-kernel:
	$(GO) test -run '^$$' -bench 'SchedulerChurn|SkewedHorizon' ./internal/sim/

# CPU+heap profiles of one million-node field campaign (BenchmarkRunField1M:
# 10k clusters, 3 events), where population set-up — nodes, rng
# streams, election, clustering, trust snapshots — dominates; ready for
# `go tool pprof`. go test also leaves the experiment.test binary behind.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkRunField1M$$' -benchtime 1x \
		-cpuprofile cpu.out -memprofile mem.out ./internal/experiment/
	@echo "wrote cpu.out and mem.out; inspect with: go tool pprof experiment.test cpu.out"

# Regenerate every paper figure's data files into figures/.
figures:
	$(GO) run ./cmd/tibfit-figures -out figures -runs 3

# Byte-identity gate for refactors: check out BASE (default HEAD) in a
# temporary git worktree, regenerate every tibfit-figures output at
# -runs 1 and -runs 3 from it and from this tree, and cmp each pair.
# Fails naming the first file that differs; the worktree is removed
# either way.
BASE ?= HEAD
figures-identical:
	@tmp=$$(mktemp -d) || exit 1; \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1; git worktree prune; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" "$(BASE)" >/dev/null 2>&1 || { echo "figures-identical: cannot check out $(BASE)" >&2; exit 1; }; \
	for runs in 1 3; do \
		(cd "$$tmp/base" && $(GO) run ./cmd/tibfit-figures -out "$$tmp/base-$$runs" -runs $$runs >/dev/null) || exit 1; \
		$(GO) run ./cmd/tibfit-figures -out "$$tmp/tree-$$runs" -runs $$runs >/dev/null || exit 1; \
		if [ "$$(ls "$$tmp/base-$$runs")" != "$$(ls "$$tmp/tree-$$runs")" ]; then \
			echo "figures-identical: -runs $$runs writes a different set of files than $(BASE)" >&2; exit 1; \
		fi; \
		for f in $$(ls "$$tmp/base-$$runs"); do \
			cmp -s "$$tmp/base-$$runs/$$f" "$$tmp/tree-$$runs/$$f" || \
				{ echo "figures-identical: $$f differs from $(BASE) at -runs $$runs" >&2; exit 1; }; \
		done; \
		echo "figures-identical: $$(ls "$$tmp/tree-$$runs" | wc -l) files match $(BASE) at -runs $$runs"; \
	done

# Rerun the paper's headline claims against the live simulation.
validate:
	$(GO) run ./cmd/tibfit-validate

examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Randomized-seed chaos soak under the race detector (see
# docs/RESILIENCE.md). Override SOAK_SEED to replay a failure and
# SOAK_MODE (crash | byzantine | mixed) to pick the fault mix; a plain
# `go test` run of TestChaosSoak keeps the fixed default seed.
SOAK_SEED ?= $(shell date +%s)
SOAK_MODE ?= mixed
soak:
	TIBFIT_SOAK_SEED=$(SOAK_SEED) TIBFIT_SOAK_MODE=$(SOAK_MODE) \
		$(GO) test -race -count=1 -run TestChaosSoak -v ./internal/network/

# Run the online decision daemon (see docs/SERVING.md). Override
# SERVE_FLAGS to pick a scheme, tenant, unit, or snapshot file.
SERVE_FLAGS ?= -listen 127.0.0.1:8080 -tenant default
serve:
	$(GO) run ./cmd/tibfit-serve $(SERVE_FLAGS)

# Seeded load generator against a running daemon (see docs/SERVING.md).
LOAD_FLAGS ?= -addr http://127.0.0.1:8080 -tenants 4 -reports 10000
load:
	$(GO) run ./cmd/tibfit-load $(LOAD_FLAGS)

# End-to-end serving smoke (CI's serve-smoke job): build both binaries,
# boot the daemon, push SMOKE_REPORTS seeded reports across
# SMOKE_TENANTS tenants from a closed-loop worker fleet over the
# line-format batch wire, require decisions on every tenant, roundtrip
# each tenant's sealed snapshot, and leave the latency histograms plus
# the sustained reports/sec figure in serve-latency.json. A tenant is one
# event location under one lock, so the workers run in parallel by
# spreading the load across tenants. Override the
# SMOKE_* knobs to rescale; SMOKE_WIRE=json exercises the classic path.
SMOKE_DIR := /tmp/tibfit-serve-smoke
SMOKE_REPORTS ?= 1000000
SMOKE_TENANTS ?= 8
SMOKE_WORKERS ?= 4
SMOKE_WIRE ?= batch
serve-smoke:
	$(GO) build -o $(SMOKE_DIR)/tibfit-serve ./cmd/tibfit-serve
	$(GO) build -o $(SMOKE_DIR)/tibfit-load ./cmd/tibfit-load
	@$(SMOKE_DIR)/tibfit-serve -listen 127.0.0.1:18080 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	sleep 1; \
	$(SMOKE_DIR)/tibfit-load -addr http://127.0.0.1:18080 \
		-tenants $(SMOKE_TENANTS) -reports $(SMOKE_REPORTS) \
		-nodes 32 -batch 256 -tout 5 \
		-workers $(SMOKE_WORKERS) -wire $(SMOKE_WIRE) \
		-min-decisions $(SMOKE_TENANTS) -snapshot-roundtrip -out serve-latency.json

# Brief continuous fuzzing of the fuzz targets (5s each).
fuzz:
	$(GO) test -fuzz FuzzCluster -fuzztime 5s ./internal/cluster/
	$(GO) test -fuzz FuzzCircleSet -fuzztime 5s ./internal/cluster/
	$(GO) test -fuzz FuzzMajorityForms -fuzztime 5s ./internal/analysis/
	$(GO) test -fuzz FuzzBinomialPMF -fuzztime 5s ./internal/analysis/
	$(GO) test -fuzz FuzzLoadStation -fuzztime 5s ./internal/leach/
	$(GO) test -fuzz FuzzOpenSnapshot -fuzztime 5s ./internal/core/
	$(GO) test -fuzz FuzzGridRange -fuzztime 5s ./internal/geo/
	$(GO) test -fuzz FuzzGridNearest -fuzztime 5s ./internal/geo/
	$(GO) test -fuzz FuzzSourceMatchesMathRand -fuzztime 5s ./internal/rng/
	$(GO) test -fuzz FuzzSourceAPIMatchesMathRand -fuzztime 5s ./internal/rng/
	$(GO) test -fuzz FuzzBatchParse -fuzztime 5s ./internal/serve/

clean:
	rm -rf figures
	$(GO) clean -testcache
