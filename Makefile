# Tier-1 verification and development targets. `make ci` is the one-command
# tier-1 gate (build, vet, full test suite); `make check` is the default
# developer gate: ci plus a race-detector pass over the concurrency-heavy
# packages and a short-budget fuzz run.

GO ?= go

.PHONY: all build test vet bench bench-codec bench-smoke bench-selftest chaos fuzz fuzz-ci race ci check docs-check api-check api-snapshot smoke-daemon

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# ci is the tier-1 verify: everything must build, vet clean and pass.
ci: build vet test

# race runs the cluster, core, disk and cache suites — the packages with
# real cross-goroutine traffic (pipelined sender, receive loop, worker
# pools, the sweep-ahead prefetcher, the async batched reader, and the
# multi-tenant session: concurrent Submits, the admission controller, the
# share window and the per-job frame router; the concurrent-stress test
# raises GOMAXPROCS to at least 4 itself) — under the race detector.
race:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/core/ ./internal/disk/ ./internal/cache/

# check is the default gate: tier-1 plus race, the chaos suite, a short
# fuzz budget, the documentation and API gates, the perf smoke pass, the
# benchmark's self-test and the daemon smoke test.
check: ci race chaos fuzz-ci docs-check api-check bench-smoke bench-selftest smoke-daemon

# smoke-daemon builds the real graphhd binary, serves a generated dataset on
# a loopback port, submits PageRank through the typed Go client, asserts the
# paginated remote result is bit-identical to the in-process Run, and checks
# SIGTERM drains gracefully (exit 0, session closed). The service package's
# own e2e suite runs under the race detector as well.
smoke-daemon:
	$(GO) test . -run TestDaemonSmoke -count=1
	$(GO) test -race -count=1 ./internal/service/

# chaos runs the fault-injection and crash-recovery suite under the race
# detector: the crash-at-every-superstep sweep (serial and with two
# concurrent jobs in flight), the kill-then-rejoin elastic-membership
# sweep, hang detection, wire drop/duplicate tolerance, session death
# semantics and the disk failure hooks. Every test asserts recovered
# results are bit-identical to the fault-free run.
chaos:
	$(GO) test -race -count=1 \
		-run 'Recovery|Fault|Wire|Kill|Checkpoint|SessionRecovers|SessionDead|AllServersDie|Rejoin|JoinBetweenJobs|JoinValidation|JobBarrierNoLeak' \
		./internal/core/ ./internal/disk/ .

# bench-smoke is the fast perf sanity pass: the skewed-partition
# rebalancing experiment at a tiny scale (exercises migration end to end
# and checks bit-identical results), the smallest point of the out-of-core
# sweep (prefetch off vs on at a 25% cache budget), the two-job
# multi-tenant session vs back-to-back (checks bit-identity and that the
# shared sweep beats serial), plus the allocation guards on the pipelined
# send, receive and prefetch-hit paths, the pooled zlib codecs, the
# declined cache admission and the share window.
bench-smoke:
	GRAPHH_BENCH_SCALE=0.05 $(GO) run ./cmd/graphh-bench -exp skew -supersteps 8
	GRAPHH_BENCH_SCALE=0.05 GRAPHH_OOC_BUDGETS=25 $(GO) run ./cmd/graphh-bench -exp ooc -supersteps 6
	GRAPHH_BENCH_SCALE=0.05 $(GO) run ./cmd/graphh-bench -exp multijob -supersteps 8
	$(GO) test ./internal/cluster/ -run TestRecvSteadyStateAllocs -count=1
	$(GO) test ./internal/core/ -run 'TestProcessTileSteadyStateAllocs|TestPrefetchSteadyStateAllocs' -count=1
	$(GO) test ./internal/compress/ -run TestZlibSteadyStateAllocs -count=1
	$(GO) test ./internal/cache/ -run 'TestDeclinedPutSkipsCompression|TestShareWindowSteadyStateAllocs' -count=1
	$(GO) test ./internal/core/ -run xxx -bench BenchmarkRecovery4Servers -benchtime 1x -count=1

# bench-selftest runs the benchmark's own tests. perfbench/ is a module of
# its own, so the root `go test ./...` does not build it: without this
# target a library change could break the benchmark unnoticed.
bench-selftest:
	cd perfbench && $(GO) test ./...

# api-check surfaces accidental public-API breaks: the root package's
# `go doc -all` output must match the committed snapshot in docs/API.txt.
# After an intentional API change, run `make api-snapshot` and commit the
# refreshed file (the diff doubles as the API-review artifact).
api-check:
	@$(GO) doc -all . | diff -u docs/API.txt - \
		|| { echo "public API drifted from docs/API.txt;"; \
		     echo "run 'make api-snapshot' if the change is intentional"; exit 1; }

api-snapshot:
	$(GO) doc -all . > docs/API.txt

# docs-check keeps the documentation honest: every example and command must
# compile, gofmt must be clean repo-wide, and every `make <target>` command
# quoted in README.md must exist as a target in this Makefile.
docs-check:
	$(GO) build ./examples/... ./cmd/...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@missing=0; \
	for t in $$(awk '/^```/{in_code=!in_code;next} in_code' README.md | \
		grep -ohE '(^|[ \t])make [a-z][a-z0-9-]*' | sed 's/.*make //' | sort -u); do \
		grep -qE "^$$t:" Makefile || { echo "README references missing make target: $$t"; missing=1; }; \
	done; \
	[ "$$missing" -eq 0 ]

# bench runs the experiment-harness benchmarks plus the end-to-end PageRank
# hot-path benchmark (see PERF.md).
bench:
	$(GO) test . -run xxx -bench . -benchmem

# bench-codec tracks the serialization hot paths against the per-word
# reference implementation (the PERF.md table).
bench-codec:
	$(GO) test ./internal/csr/ -run xxx -bench 'TileDecode|TileEncode|TileAppend|BuildFilter' -benchmem
	$(GO) test ./internal/comm/ -run xxx -bench 'Encode|DecodeInto' -benchmem

# fuzz gives the tile-codec fuzzer a short budget; raise -fuzztime at will.
fuzz:
	$(GO) test ./internal/csr/ -run xxx -fuzz FuzzDecode -fuzztime 30s

# fuzz-ci runs every fuzz target with a CI-sized budget.
fuzz-ci:
	$(GO) test ./internal/csr/ -run xxx -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/comm/ -run xxx -fuzz FuzzDecodeInto -fuzztime 10s
	$(GO) test ./internal/comm/ -run xxx -fuzz FuzzDecodeJobFrame -fuzztime 10s
	$(GO) test ./internal/core/ -run xxx -fuzz FuzzDecodeRebalance -fuzztime 10s
	$(GO) test ./internal/core/ -run xxx -fuzz FuzzDecodeJoinFrame -fuzztime 10s
	$(GO) test ./internal/disk/ -run xxx -fuzz FuzzDecodeBatchFrame -fuzztime 10s
	$(GO) test ./api/ -run xxx -fuzz FuzzDecodeJobRequest -fuzztime 10s
