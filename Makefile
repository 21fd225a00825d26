# Standard verification gate for redistgo. `make check` is what CI (and
# any pre-merge hook) should run: lint (gofmt, vet, redistlint), build,
# the full test suite under the race detector, the benchmark module's own
# vet, lint and tests, and a one-iteration benchmark smoke of the batch
# engine so a scaling regression cannot land silently.

GO ?= go
BENCH_COUNT ?= 5

.PHONY: check lint vet build test race race-obs bench-module bench-smoke bench-solve-smoke bench-wire-smoke bench bench-shard bench-shard-smoke bench-delta bench-delta-smoke fuzz-smoke trace-demo soak-smoke soak-obs-smoke soak-delta-smoke

check: lint build race race-obs bench-module bench-smoke bench-solve-smoke bench-wire-smoke bench-shard-smoke bench-delta-smoke soak-smoke soak-obs-smoke soak-delta-smoke

# Static gate: formatting, go vet, and the project linter (see
# tools/redistlint and the "Enforced invariants" section of DESIGN.md).
# gofmt -l prints unformatted files; the sh -c wrapper turns any output
# into a failure.
lint: vet
	@sh -c 'out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi'
	$(GO) run ./tools/redistlint ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Plain tier-1 suite (matches ROADMAP.md).
test:
	$(GO) test ./...

# Tier-1 under the race detector; also replays the fuzz seed corpora
# (FuzzSolve, FuzzSolveBatchDifferential) as regular tests, so the
# differential batch-vs-serial check runs race-instrumented on every gate.
race:
	$(GO) test -race ./...

# Focused race pass over the observability layer and the engine that
# hammers it concurrently — `make race` covers these too, but this target
# stays cheap enough to run on its own while iterating on obs code.
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/engine/...

# The benchmark in tools/redistbench is a Go module of its own, so neither
# `go test ./...`, `make lint` nor the linter's TestLintRepoClean reaches
# it. Vet, lint and test it here, so that a kpbs or wire API change that
# breaks the benchmark fails this gate and not only CI, whose redistbench
# job runs this target. The linter lists the packages of its working
# directory, so it runs from inside the module, which resolves it through
# its replace of redistgo.
bench-module:
	$(GO) -C tools/redistbench vet ./...
	$(GO) -C tools/redistbench run redistgo/tools/redistlint ./...
	$(GO) -C tools/redistbench test ./...

# One benchmark iteration of the batch engine: proves the serial and
# pooled paths still run and agree (the benchmark re-verifies
# byte-identical schedules before timing anything).
bench-smoke:
	$(GO) test ./internal/engine -run='^$$' -bench=SolveBatch -benchtime=1x

# One iteration of every solver row (BenchmarkBitsetSolve), the rows
# DESIGN.md and the README cite, so each keeps building and solving; no
# timing assertion (1 iteration is too noisy to gate on).
bench-solve-smoke:
	$(GO) test ./internal/kpbs -run='^$$' -bench=BitsetSolve -benchtime=1x

# One iteration of each schedule-codec row (BenchmarkSolveResp: encode and
# decode of the dense64-ggp, powerlaw256-oggp and mixed-small response
# shapes, with their payload sizes), so the rows DESIGN.md cites keep
# running; no timing assertion.
bench-wire-smoke:
	$(GO) test ./internal/wire -run='^$$' -bench=SolveResp -benchtime=1x

# Full benchmark comparison, serial loop vs worker pool.
bench:
	$(GO) test ./internal/engine -run='^$$' -bench=SolveBatch -benchtime=2s

# Sharded-vs-monolithic solver comparison on the PR 5 acceptance
# workloads: block-diagonal 8x(64x64) must reach >= 3x, while the
# power-law and single-component dense controls only have to stay within
# 5% of the monolith (speedup >= 0.95 — sharding must never cost real
# time even when it cannot win). Emits the BENCH_PR5.json artifact.
# The cheap control workloads repeat in a shell loop (one process per
# repetition) instead of -count: within a process the paired variants run
# back to back, so slow drift in shared-host CPU speed cancels out of the
# speedup instead of biasing whichever variant ran in the slow window.
bench-shard:
	$(GO) test ./internal/kpbs -run='^$$' -bench=ShardSolve/BlockDiag -benchmem -count=$(BENCH_COUNT) -timeout=30m > bench_shard.txt
	for i in $$(seq $(BENCH_COUNT)); do \
		$(GO) test ./internal/kpbs -run='^$$' -bench='ShardSolve/(Dense64|PowerLaw)' -benchmem -benchtime=10x -timeout=30m >> bench_shard.txt || exit 1; \
	done
	$(GO) run ./tools/benchcompare -variants unsharded,sharded -min-speedup 3 \
		-expect PowerLaw=0.95 -expect Dense64=0.95 -json BENCH_PR5.json bench_shard.txt

# One-iteration smoke of the same pipeline for `make check`: proves both
# solver paths and the comparator's -variants/-expect plumbing still run;
# no speedup assertion (1 iteration is too noisy to gate on).
bench-shard-smoke:
	$(GO) test ./internal/kpbs -run='^$$' -bench=ShardSolve -benchmem -benchtime=1x > bench_shard_smoke.txt
	$(GO) run ./tools/benchcompare -variants unsharded,sharded bench_shard_smoke.txt
	rm -f bench_shard_smoke.txt

# Delta-vs-cold solve comparison on the PR 10 acceptance workloads: the
# dense 64x64 jitter stream (~5% of cells re-drawn per round inside their
# beta bucket) must reach >= 5x over re-solving from scratch, while the
# weight-only rebuild (Dense64Swap), structural rebuild (StructuralChurn)
# and fallback (ColdBase) paths are parity controls (speedup >= 0.95 —
# delta dispatch must never cost real time on the streams it cannot
# shortcut). Every benchmark byte-verifies a full cycle of its edit
# stream against cold solves, and pins each workload to the delta path
# it claims, before timing anything.
# Emits the BENCH_PR10.json artifact. Unlike bench-shard, the control
# arms run in *separate alternating processes* (cold-only, then
# delta-only, repeated): pairing them inside one process — Go runs
# every cold arm before any delta arm — systematically penalizes the
# second arm by ~8% on these allocation-heavy workloads, swamping a 5%
# tolerance. Alternating whole processes interleaves the two arms in
# time, so slow host drift still averages out of the aggregated ratio,
# and the byte-identity/path-pin cycle re-runs in every process.
bench-delta:
	$(GO) test ./internal/kpbs -run='^$$' -bench=DeltaSolve/Dense64Jitter -benchmem -count=$(BENCH_COUNT) -timeout=30m > bench_delta.txt
	for i in $$(seq $$((2 * $(BENCH_COUNT)))); do \
		$(GO) test ./internal/kpbs -run='^$$' -bench='DeltaSolve/(Dense64Swap|StructuralChurn|ColdBase)/cold$$' -benchmem -benchtime=10x -timeout=30m >> bench_delta.txt || exit 1; \
		$(GO) test ./internal/kpbs -run='^$$' -bench='DeltaSolve/(Dense64Swap|StructuralChurn|ColdBase)/delta$$' -benchmem -benchtime=10x -timeout=30m >> bench_delta.txt || exit 1; \
	done
	$(GO) run ./tools/benchcompare -variants cold,delta -min-speedup 5 \
		-expect Dense64Swap=0.95 -expect StructuralChurn=0.95 -expect ColdBase=0.95 \
		-json BENCH_PR10.json bench_delta.txt

# One-iteration smoke of the same pipeline for `make check`: runs the
# byte-identity/path-pin cycle of all four delta workloads plus the
# comparator; no speedup assertion (1 iteration is too noisy to gate on).
bench-delta-smoke:
	$(GO) test ./internal/kpbs -run='^$$' -bench=DeltaSolve -benchmem -benchtime=1x > bench_delta_smoke.txt
	$(GO) run ./tools/benchcompare -variants cold,delta bench_delta_smoke.txt
	rm -f bench_delta_smoke.txt

# End-to-end observability demo: run a small scheduled redistribution on
# the loopback-TCP cluster with tracing on and leave trace.json behind —
# open it in chrome://tracing (or ui.perfetto.dev) to see solver peels,
# engine lanes and per-step cluster timing.
trace-demo:
	$(GO) run ./cmd/redist-net -engine tcp -nodes 3 -k 2 -min-mb 0.02 -max-mb 0.05 -backbone-mbit 400 -beta-ms 1 -trace trace.json
	@echo "wrote trace.json — load it in chrome://tracing"

# End-to-end smoke of the scheduling daemon: redist-soak spawns an
# in-process redist-serve over real loopback TCP, hammers it from 4
# concurrent tenant sessions across the trafficgen families, verifies
# every returned schedule byte-identical against a local solve, and
# requires a clean graceful shutdown. Nonzero exit on any mismatch,
# protocol error, or unclean drain.
soak-smoke:
	$(GO) run ./cmd/redist-soak -spawn -clients 4 -requests 10 -n 10

# The observability variant of soak-smoke: trace contexts on every
# request (server must echo each trace id and report handling time), the
# live endpoint bound (the soak binary scrapes its own /metrics and
# validates the Prometheus exposition before exiting), and a Chrome
# trace written on shutdown, which must be non-empty — the per-request
# span pipeline proven end to end over real loopback TCP.
soak-obs-smoke:
	$(GO) run ./cmd/redist-soak -spawn -clients 8 -requests 10 -n 10 -tracectx -obs :0 -trace soak_obs_trace.json
	@sh -c 'test -s soak_obs_trace.json || { echo "soak-obs-smoke: empty trace file"; exit 1; }'
	rm -f soak_obs_trace.json

# The delta variant of soak-smoke: every client opens a base schedule,
# then streams trafficgen edit batches against it as MsgDeltaReq frames
# on the chain its session retains, byte-verifying each delta response
# against a local cold solve of its mirrored matrix. Clients also probe
# never-issued base ids every 16th round and require RejectUnknownBase,
# proving the reject/fallback path (fall back to a fresh full solve)
# under concurrency. One solver worker serves the four clients: deltas
# queue on the pool like solves, and past the queue depth they are
# refused busy and resent unchanged, so every answered delta must still
# verify. With the live endpoint bound, the soak prints the server's
# solver.delta.requests_total.<alg>.{reuse,rebuild,cold} and fails when
# no delta took reuse or rebuild, so the retained-solve engine is
# exercised on the served path (shard auto, the daemon's default).
soak-delta-smoke:
	$(GO) run ./cmd/redist-soak -spawn -delta -clients 4 -requests 16 -n 10 -spawn-workers 1 -obs :0

# Short real fuzzing burst per target, on top of the seed corpora that
# `make race` always replays: the solver, the batch and peeler
# differentials, delta solving, the incremental matcher's peel sequences
# in both of its modes, the wire-protocol frame reader and decoders, and
# the block-cyclic traffic generator — every fuzz target in the module.
# One package:target pair per entry; CI runs
# `make fuzz-smoke FUZZTIME=30s`.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	internal/kpbs:FuzzSolve \
	internal/kpbs:FuzzSolveBatchDifferential \
	internal/kpbs:FuzzPeelDifferential \
	internal/kpbs:FuzzSolveDelta \
	internal/matching:FuzzBottleneckIncPeel \
	internal/matching:FuzzIncrementalPeel \
	internal/trafficgen:FuzzBlockCyclic \
	internal/wire:FuzzRead \
	internal/wire:FuzzReadStream \
	internal/wire:FuzzDecodeSolveReq \
	internal/wire:FuzzDecodeSolveResp \
	internal/wire:FuzzDecodeDeltaReq

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t#*:}; \
		echo "fuzz $$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test ./$$pkg -run='^$$' -fuzz="^$$fn\$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done
