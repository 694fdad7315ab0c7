# Convenience targets; everything is plain `go` underneath.

.PHONY: build test race stress accuracy bench bench-smoke bench-json bench-diff bench-sharded bench-harness-build bench-harness-test chaos cluster-e2e check experiments examples vet vuln profile loc knobs unused fuzz-smoke server-deps cmd-smoke

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

# Known-vulnerability scan. The module is stdlib-only, so findings are Go
# toolchain/stdlib advisories. Skips with a notice when govulncheck is not
# installed (offline sandboxes); CI installs it and enforces the scan.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Formatting (any file gofmt would rewrite fails), static analysis, the
# server's dependency guard, the vulnerability scan, a
# compile of the frozen benchmark harness and its own tests, the full suite
# under the race detector, ten seconds of differential fuzzing of each
# hand-written decoder, and one iteration of every hot-path benchmark so a
# compile- or panic-level regression in the benchmarked paths cannot land
# silently.
check:
	test -z "$$(gofmt -l .)"
	go vet ./...
	$(MAKE) server-deps
	$(MAKE) bench-harness-build
	$(MAKE) bench-harness-test
	$(MAKE) vuln
	go test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke

# The repo packages the server binary links, and a guard: the paper's
# symbolic-model baseline (internal/baseline, with the internal/symbolic and
# internal/depgraph packages under it) runs beside the engine in experiments
# and examples, never in the server.
SERVER_FORBIDDEN := repro/internal/symbolic repro/internal/depgraph repro/internal/baseline
server-deps:
	@deps=$$(go list -deps ./cmd/server | grep '^repro/'); echo "$$deps"; \
	for p in $(SERVER_FORBIDDEN); do \
		if echo "$$deps" | grep -qx "$$p"; then echo "server-deps: cmd/server links $$p" >&2; exit 1; fi; \
	done

# The two hand-written decoders that read bytes from outside the process,
# each against its reflection-based oracle on mutated inputs, ten seconds'
# worth apiece: the /ingest scanner against encoding/json, the peer RPC codec
# against encoding/gob. (Plain `go test` already runs both seed corpora; the
# fuzzing engine's cache lives under GOCACHE, and a failing input is written
# to the package's testdata/fuzz to be checked in as a seed.)
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzBatchDecode -fuzztime 10s ./internal/model/
	go test -run '^$$' -fuzz FuzzWireCodec -fuzztime 10s ./internal/cluster/

# bench/ is its own module (repro/bench), so `go build ./...` cannot see it
# and an API change that breaks the harness would surface only when the
# benchmark runs. Compile and vet it against this tree; -o /dev/null keeps
# the build from leaving a binary under bench/.
bench-harness-build:
	go -C bench build -o /dev/null ./...
	go -C bench vet ./...

# The harness's own tests (~10 s, no latency assertions): they drive its
# in-process replay through this tree's engine, server and cluster packages,
# so an API change that still compiles against the frozen harness but breaks
# what it does cannot land.
bench-harness-test:
	go -C bench test ./...

# The packages whose tests involve timers, background goroutines, disks and
# networks, twenty times over under the race detector: a test that fails one
# run in three cannot get through. The server is among them because its
# handlers call the engine concurrently, with no lock of their own. Twenty
# engine passes take 8-10 minutes on a 2-vCPU box, right at go test's default
# limit, hence the explicit one.
stress:
	go test -race -count=20 -timeout 30m ./internal/engine/ ./internal/cluster/ ./internal/sim/chaos/ ./internal/server/

# The statistical accuracy gate: the paper's §5 measures (range KL divergence,
# kNN hit rate, top-1/top-2 success) at the Figures 9-13 operating point,
# averaged over seeds 1-10, each within 3 standard errors of
# internal/experiments/testdata/accuracy.golden (~30 s; prints the table).
accuracy:
	go test -count=1 -run '^TestAccuracyGate$$' -v ./internal/experiments/

# Chaos scenarios in short mode: crash-at-random-points, per-shard
# disk-fault schedules (quarantine + heal), and two-node peer faults
# (kill/partition/heal) diffed against unfaulted oracles. On failure, each
# scenario writes its conservation ledger to $(CHAOS_LEDGER) (default
# chaos-ledger.txt) so CI can upload it as an artifact.
CHAOS_LEDGER ?= chaos-ledger.txt
chaos:
	CHAOS_LEDGER=$(CHAOS_LEDGER) go test -short -race ./internal/sim/chaos/

# Two-node cluster smoke over real HTTP: both servers on loopback listeners,
# peer RPC via /cluster/rpc, a batch ingested through node-0 must be queryable
# identically through both nodes.
cluster-e2e:
	go test -race -run TestClusterE2E -v ./internal/server/

bench:
	go test -bench=. -benchmem ./...

# One iteration of each internal hot-path benchmark: catches breakage, does
# not measure (the root-package paper benchmarks are too slow for smoke).
bench-smoke:
	go test -run '^$$' -bench . -benchtime=1x ./internal/...

# Run the hot-path, engine-step, query-layer, ingest-layer (reader health
# among them) and peer-RPC benchmarks and record the parsed results plus the
# speedups over the newest checked-in report:
# cmd/benchjson finds the highest BENCH_N.json and writes BENCH_<N+1>.json
# into BENCH_DIR (the repository root by default — a new checked-in record;
# CI passes a temp dir so the baselines it diffs against stay as committed).
# For a paired record, run `go run ./cmd/benchjson -count 5 -against <dir>`
# with <dir> a checkout of the parent commit: both sides measured in turns.
BENCH_DIR ?= .
bench-json:
	go run ./cmd/benchjson -dir $(BENCH_DIR)

# Regression gate: re-run the benchmarks and fail loudly if the indexed
# FilterStep, the single-engine 1k-object step, the one-shard router step,
# the 1000-object cold full-run sweep (ColdRun1k), the delivery decoder
# (BatchDecode3500/scanner) or the reader-health monitor (ObserveSecond) is
# more than 20% slower than the newest checked-in BENCH_N.json. Writes
# nothing; used by CI next to bench-smoke.
bench-diff:
	go run ./cmd/benchjson -out '' -maxregress 0.20

# The sharded-engine scaling report: the same run, with speedups over the
# pre-sharding BENCH_2.json embedded as speedups_vs_baseline.
bench-sharded:
	go run ./cmd/benchjson -out $(BENCH_DIR)/bench-sharded.json -baseline BENCH_2.json

# Non-test Go lines per package, bench/ left out (it is its own module), and
# the total of the three packages the ROADMAP's design-quality aim tracks.
# Every PR quotes this at its parent and at its change.
loc:
	@{ echo '| package | non-test Go lines |'; echo '|---|---:|'; \
	for d in $$(go list -f '{{.Dir}}' ./...); do \
		n=$$(cat $$(ls $$d/*.go | grep -v _test.go) /dev/null | wc -l); \
		rel=$${d#$(CURDIR)}; rel=$${rel#/}; \
		[ $$n -gt 0 ] && echo "| $${rel:-.} | $$n |"; \
	done; \
	echo "| **internal/engine + internal/server + internal/cluster** | **$$(cat $$(ls internal/engine/*.go internal/server/*.go internal/cluster/*.go | grep -v _test.go) | wc -l)** |"; }

# Settable values per configuration type (exported leaf fields, struct-typed
# fields recursed into) and their total: engine.Config, server.Config,
# server.HandlerConfig and cluster.Config. Every PR that adds or removes an
# option quotes this at its parent and at its change.
knobs:
	@out=$$(go test -count=1 -run '^TestKnobs$$' -v ./internal/server/) || { echo "$$out" >&2; exit 1; }; \
	echo "$$out" | grep '^|'

# Exported functions and methods that no non-test file of the module or of
# bench/ references (a method an interface the program uses declares counts
# as referenced), marked where the repro package promises them, each with the
# reason it stays. Fails on one that is not on TestUnused's kept list
# (unused_test.go), and on a kept entry that is referenced again or gone.
unused:
	@out=$$(go test -count=1 -run '^TestUnused$$' -v .) || { echo "$$out" >&2; exit 1; }; \
	echo "$$out" | grep '^|'

# Regenerate every paper figure at full scale (~15 minutes).
experiments:
	go run ./cmd/experiments -fig all

# Run the demo server with profiling on: pprof at :8080/debug/pprof/,
# metrics at :8080/metrics.
profile:
	go run ./cmd/server -demo -pprof

# Smoke-run of the commands that have no tests of their own and of the
# examples: simulate records a short trace, replay answers a range and a kNN
# query over it, floorplan prints the default office, and each example runs
# to its end. Any non-zero exit fails the target; the recording lives in a
# temporary directory removed afterwards.
cmd-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	go run ./cmd/simulate -objects 20 -seconds 20 -warmup 30 -record "$$tmp/rec" >/dev/null && \
	go run ./cmd/replay -prefix "$$tmp/rec" -range 0,0,20,20 -knn 10,10,3 >/dev/null && \
	go run ./cmd/floorplan >/dev/null
	$(MAKE) examples

examples:
	go run ./examples/quickstart
	go run ./examples/friendfinder
	go run ./examples/securityzone
	go run ./examples/tracking
	go run ./examples/multifloor
