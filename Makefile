# Developer entry points. `make check` is the tier-1 gate: formatting,
# vet, the full test suite, one run of every benchmark, the benchmark
# module's golden-digest tests, and a race-detector pass over every
# package with concurrency: the telemetry layer's lock-free fast paths,
# the experiment worker pool, and the fault-injection campaign pool,
# whose trials share each workload's assembled program (every trial
# class runs in one of the four campaign determinism tests). The
# multicomputer steps its nodes on one goroutine, so it has no race
# pass.

GO ?= go

.PHONY: check fmt vet test bench-smoke bench-test race build bench audit fuzz-short lint verify obsv jit flow persist migrate

check: fmt vet lint test bench-smoke bench-test race

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Repository hygiene gate (cmd/repolint, pure go/ast): no panics or
# fmt.Print* in internal/* non-test code; no math/rand or global time
# sources in the deterministic simulation packages. See docs/VERIFIER.md.
lint:
	$(GO) run ./cmd/repolint .

# Static capability-safety verification of every shipped program and
# campaign workload (cmd/mmlint over internal/capverify). Fails on any
# provable guarded-pointer fault. See docs/VERIFIER.md.
verify:
	@set -e; for f in programs/*.s; do \
		case "$$f" in \
		programs/memlib.s) ;; \
		programs/usemem.s) $(GO) run ./cmd/mmlint $$f programs/memlib.s ;; \
		*) $(GO) run ./cmd/mmlint $$f ;; \
		esac; \
	done

test:
	$(GO) test ./...

# Every benchmark in the module, once: `go test` never runs them, and
# their gates (0 allocs/op via testing.AllocsPerRun, "translator never
# engaged", "workload stopped", wrong results) fail only when they run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The benchmark module (bench/, its own go.mod, so `go test ./...` at
# the root skips it): checks the seed-1 golden digests of all five
# mmbench workloads and interpreter/translator digest agreement, so a
# change that alters the default machine's results fails here (~8s).
bench-test:
	cd bench && $(GO) test ./...

race:
	$(GO) test -race ./internal/telemetry/
	$(GO) test -race -run 'TestParallelRender' ./internal/experiments/
	$(GO) test -race -run 'TestCampaignDeterministic|TestTolerantCampaignDeterministic|TestMigrateCampaignDeterministic|TestPersistCampaignDeterministic' ./internal/faultinject/
	$(GO) test -race -run 'TestJITDifferentialCorpus' .

# Compiled-tier differential gate (docs/PERFORMANCE.md): the E27
# interp-vs-translator census, the root determinism corpus, the
# translator's own unit tests, the op-by-op proven-vs-checked dispatch
# property and the SMC and stats invariants in internal/machine,
# interpreter/translator agreement on the mesh, the verifier's per-site
# table contract, and the mmsim CLI byte-identity / -verify refusal
# tests.
jit:
	$(GO) run ./cmd/experiments -run E27
	$(GO) test -run 'TestJITDifferentialCorpus' .
	$(GO) test ./internal/jit/
	$(GO) test -run 'TestJIT' ./internal/machine/ ./internal/multi/ ./cmd/mmsim/
	$(GO) test -run 'TestSite' ./internal/capverify/

# Capability-flow gate: the E30 flow-vs-register-only differential with
# its 90% discharge and zero-leak gates, the crafted store/reload/alias
# and confinement differential suite, the store-lattice and
# threshold-widening property tests, and the mmlint -stats/leak surface.
flow:
	$(GO) run ./cmd/experiments -run E30
	$(GO) test -run 'TestFlow|TestConfinement|TestStore|TestJoinMem|TestThreshold' ./internal/capverify/
	$(GO) test ./cmd/mmlint/

# Full protection audit: the E23 fault-injection campaign (>=10k seeded
# injections across every fault class plus the checkpoint-recovery
# trial) followed by the E24 tolerance campaign (same fault mix with the
# self-healing stack enabled). Fails if any injection escapes, any
# detected fault goes unrecovered, or recovery diverges. See
# docs/ROBUSTNESS.md.
audit:
	$(GO) run ./cmd/experiments -run E23
	$(GO) run ./cmd/experiments -run E24

# Short fuzzing pass over the hostile-input surfaces: instruction
# decode, guarded-pointer derivation, the assembler, and the NoC
# transport header/sequence machinery. Each target also replays its
# committed seed corpus under `make test`.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/isa/
	$(GO) test -run '^$$' -fuzz FuzzPointerOps -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzAsm -fuzztime $(FUZZTIME) ./internal/asm/
	$(GO) test -run '^$$' -fuzz FuzzTransport -fuzztime $(FUZZTIME) ./internal/noc/
	$(GO) test -run '^$$' -fuzz FuzzVerify -fuzztime $(FUZZTIME) ./internal/capverify/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz FuzzMigrateFrame -fuzztime $(FUZZTIME) ./internal/migrate/

# Durable-checkpoint gate (docs/ROBUSTNESS.md): the E28 chain
# differential + persistence-fault campaign + capture-cost gates, the
# on-disk format and store unit tests, the dirty-bit lifecycle and
# delta-capture tests, the multicomputer's disk-backed checkpoint ring,
# and the mmsim -checkpoint-dir/-restore CLI flow.
persist:
	$(GO) run ./cmd/experiments -run E28
	$(GO) test ./internal/persist/
	$(GO) test -run 'TestDirty|TestIncremental|TestCapture' ./internal/vm/ ./internal/kernel/
	$(GO) test -run 'TestPersist' ./internal/multi/ ./internal/faultinject/
	$(GO) test -run 'TestCheckpointThenRestore|TestRestore|TestPersistMetrics' ./cmd/mmsim/

# Live-migration gate (docs/ROBUSTNESS.md): the E29 differential +
# dirty-rate sweep + migration fault campaign, the wire protocol and
# pre-copy unit tests, abort-invariance on the mesh and the cycle count
# Run reports across a migration, the migration fault classes in the
# campaign harness, the Prune retention property, and the mmsim
# -migrate-at/-migrate-to/-checkpoint-ls CLI flow.
migrate:
	$(GO) run ./cmd/experiments -run E29
	$(GO) test ./internal/migrate/
	$(GO) test -run 'TestMigrate' ./internal/multi/ ./internal/faultinject/ ./cmd/mmsim/
	$(GO) test -run 'TestStorePruneProperty' ./internal/persist/
	$(GO) test -run 'TestCheckpointLs' ./cmd/mmsim/

# Layer benchmarks (docs/PERFORMANCE.md): every `Benchmark*` row in
# the module, each in the package of the layer it measures, five runs
# apiece so every row has a median and a spread. End-to-end numbers
# come from `bash bench/run.sh` and `bench/pairs.sh` (bench/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count 5 ./...

# Live-introspection gate (docs/OBSERVABILITY.md): the E26 report
# (metric namespace, event trace, histograms, causal spans, flight
# recorder, overhead budgets) plus the
# mmsim -serve / mmtop endpoint smoke tests, and the introspection unit
# tests across the wired layers.
obsv:
	$(GO) run ./cmd/experiments -run E26
	$(GO) test -run 'TestServeFlag|TestFlightOutOnFault' ./cmd/mmsim/
	$(GO) test ./cmd/mmtop/
	$(GO) test -run 'TestSpansDeterministic|TestFlightDump|TestNodeMetrics' ./internal/multi/
	$(GO) test -run 'TestServe|TestPrometheus|TestFlight|TestHistogram' ./internal/telemetry/
