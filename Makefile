GO ?= go

# Minimum combined statement coverage (%) for internal/harness +
# internal/resultstore + internal/tensor/kernels + internal/analyzers +
# internal/coord + internal/faultline. 71.2% was measured when the
# sharding subsystem landed (PR 4); the kernels package joined the
# floor in PR 5, the fp8vet analyzer suite in PR 6, the sweep
# coordinator in PR 8, the fault-injection layer in PR 10, none
# lowering it. cover-check fails CI if the combined figure regresses
# below this.
COVER_FLOOR ?= 71.0

.PHONY: all build vet vet-contracts fma-audit lint fmt fmt-check test bench bench-json bench-gate bench-kernels bench-trend smoke shard-smoke serve-smoke coord-smoke chaos-smoke fuzz cover-check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The determinism-contract analyzer suite (cmd/fp8vet): mapiter,
# nondeterm, floatorder, atomicwrite, cellpurity. A hard CI gate —
# any unsuppressed finding fails the build.
vet-contracts:
	$(GO) run ./cmd/fp8vet ./...

# Fused multiply-add audit: cross-compile internal/nn for arm64 with the
# assembly listing and fail on any fused multiply-add inside an nn
# symbol. amd64 emits none, so one there would let arm64 layer outputs
# round differently. A listing with no nn symbol fails too, so the
# check cannot pass vacuously.
fma-audit:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	GOARCH=arm64 $(GO) build -gcflags=-S ./internal/nn 2> "$$out" || { cat "$$out"; exit 1; }; \
	awk '/ STEXT / { sym = $$1; nn = sym ~ /^fp8quant\/internal\/nn\./; seen += nn } \
		nn && /\tFN?M(ADD|SUB)[SD]\t/ { print "fma-audit: fused op in " sym ":" $$0; bad++ } \
		END { if (!seen) { print "fma-audit: no nn. symbol in the arm64 listing"; exit 1 } \
			if (bad) exit 1; \
			printf "fma-audit: %d nn symbols, no fused multiply-add (arm64)\n", seen }' "$$out"

# Umbrella for every static check.
lint: vet fmt-check vet-contracts

fmt:
	gofmt -w .

# Fails if any file needs reformatting.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The kernel-layer micro-benchmarks (blocked GEMM vs the naive loop,
# im2col conv vs the direct loop, 4-lane batch encode vs per-element
# calls, planned vs unplanned module forwards — the planned ones must
# hold 0 allocs/op under bench-gate). One fast iteration set; used as
# the CI smoke step.
KERNEL_BENCH = BenchmarkMatmulT|BenchmarkMatmulTNaive|BenchmarkConv2dIm2col|BenchmarkConv2dDirect|BenchmarkBatchMatMul|BenchmarkBatchEncode|BenchmarkForwardUnplanned|BenchmarkForwardPlanned
bench-kernels:
	$(GO) test -run xxx -bench '$(KERNEL_BENCH)' -benchtime 1x \
		./internal/tensor/kernels ./internal/nn ./internal/fp8

# Appends one dated entry (ns/op, MB/s, B/op, allocs/op per kernel
# micro-benchmark) to BENCH_kernels.json, so the perf trajectory is
# tracked across PRs as an in-repo diffable history. BENCHTIME trades
# precision for runtime (the checked-in entries use the default). Both
# this and bench-gate run on one CPU, as the recorded entries did: a
# GEMM that fans out allocates per chunk, so allocs/op and bytes/op
# otherwise depend on the host's core count.
BENCHTIME ?= 300ms
bench-json:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	GOMAXPROCS=1 $(GO) test -run xxx -bench '$(KERNEL_BENCH)' -benchtime $(BENCHTIME) -benchmem \
		./internal/tensor/kernels ./internal/nn ./internal/fp8 > "$$out" || \
		{ cat "$$out"; echo "bench-json: benchmark run failed"; exit 1; }; \
	$(GO) run ./cmd/benchgate -append -benchtime $(BENCHTIME) -json BENCH_kernels.json "$$out"

# CI gate on the deterministic benchmark counters: allocs/op and
# bytes/op against the latest recorded BENCH_kernels.json entry.
# Wall-clock is deliberately not gated — it flaps on shared VMs.
# 100x iterations amortize one-time pool warm-up allocations while
# staying fast enough for CI.
BENCH_GATE_TIME ?= 100x
bench-gate:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	GOMAXPROCS=1 $(GO) test -run xxx -bench '$(KERNEL_BENCH)' -benchtime $(BENCH_GATE_TIME) -benchmem \
		./internal/tensor/kernels ./internal/nn ./internal/fp8 > "$$out" || \
		{ cat "$$out"; echo "bench-gate: benchmark run failed"; exit 1; }; \
	$(GO) run ./cmd/benchgate -gate -json BENCH_kernels.json "$$out"

# Markdown/ASCII trend report over the recorded BENCH_kernels.json
# entries: first vs latest ns/op per benchmark with a sparkline.
bench-trend:
	$(GO) run ./cmd/benchgate -trend -json BENCH_kernels.json

# Warm-cache smoke: run table3 twice against a fresh store; the second
# run must report 0 misses and print a byte-identical report (the
# timing/cache footer lines, which start with "(", are excluded).
smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/fp8bench -exp table3 -cache-dir "$$d/store" > "$$d/run1.txt"; \
	$(GO) run ./cmd/fp8bench -exp table3 -cache-dir "$$d/store" > "$$d/run2.txt"; \
	grep -q ", 0 misses," "$$d/run2.txt" || { \
		echo "smoke: warm run had misses:"; grep "result store" "$$d/run2.txt"; exit 1; }; \
	grep -v "^(" "$$d/run1.txt" > "$$d/r1"; grep -v "^(" "$$d/run2.txt" > "$$d/r2"; \
	cmp "$$d/r1" "$$d/r2" || { echo "smoke: warm report differs from cold"; exit 1; }; \
	echo "smoke: warm run identical, 0 misses"

# Distributed-sweep smoke: compute table3 as 3 disjoint shards into 3
# separate stores, merge them, and check (a) -coverage reports the
# merged store complete, (b) a warm full run against it has 0 misses,
# and (c) its report is byte-identical to an unsharded workers=1 run
# (timing/cache footer lines, which start with "(", are excluded).
shard-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/fp8bench" ./cmd/fp8bench; \
	for i in 1 2 3; do \
		"$$d/fp8bench" -exp table3 -shard $$i/3 -cache-dir "$$d/shard$$i" > /dev/null; \
	done; \
	"$$d/fp8bench" -merge "$$d/shard1,$$d/shard2,$$d/shard3" -cache-dir "$$d/merged"; \
	"$$d/fp8bench" -exp table3 -coverage -cache-dir "$$d/merged" | tee "$$d/cov.txt"; \
	grep -q "all experiment grids complete" "$$d/cov.txt" || { \
		echo "shard-smoke: merged store incomplete"; exit 1; }; \
	"$$d/fp8bench" -exp table3 -workers 1 -no-cache > "$$d/ref.txt"; \
	"$$d/fp8bench" -exp table3 -workers 1 -cache-dir "$$d/merged" > "$$d/warm.txt"; \
	grep -q ", 0 misses," "$$d/warm.txt" || { \
		echo "shard-smoke: warm run over merged store had misses:"; \
		grep "result store" "$$d/warm.txt"; exit 1; }; \
	grep -v "^(" "$$d/ref.txt" > "$$d/r1"; grep -v "^(" "$$d/warm.txt" > "$$d/r2"; \
	cmp "$$d/r1" "$$d/r2" || { \
		echo "shard-smoke: merged report differs from unsharded run"; exit 1; }; \
	echo "shard-smoke: 3 shards merged, coverage complete, report identical, 0 misses"

# Coordinated-sweep smoke: fp8coord + pull-based fp8bench workers
# complete table3 over HTTP into a fresh store. One worker is killed
# mid-sweep (SIGKILL, no drain) to prove a lost lease costs one
# -lease-ttl timeout, not the sweep. Afterwards -coverage must report
# the store complete, a warm run against it must have 0 misses, and
# its report must be byte-identical to an uncoordinated -workers 1 run
# (timing/cache footer lines, which start with "(", are excluded).
coord-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/fp8bench" ./cmd/fp8bench; \
	$(GO) build -o "$$d/fp8coord" ./cmd/fp8coord; \
	"$$d/fp8coord" -exp table3 -cache-dir "$$d/store" -addr 127.0.0.1:0 \
		-addr-file "$$d/addr" -lease-ttl 10s -once -linger 5s 2> "$$d/coord.log" & \
	coord=$$!; \
	for i in $$(seq 50); do [ -s "$$d/addr" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr" ] || { echo "coord-smoke: no address published"; cat "$$d/coord.log"; exit 1; }; \
	url=$$(cat "$$d/addr"); \
	"$$d/fp8bench" -worker "$$url" -worker-name doomed -no-cache 2> /dev/null & doomed=$$!; \
	sleep 1; kill -9 $$doomed 2> /dev/null || true; \
	"$$d/fp8bench" -worker "$$url" -worker-name w1 -no-cache 2> "$$d/w1.log" & w1=$$!; \
	"$$d/fp8bench" -worker "$$url" -worker-name w2 -no-cache 2> "$$d/w2.log" & w2=$$!; \
	wait $$w1 || { echo "coord-smoke: worker 1 failed"; cat "$$d/w1.log"; exit 1; }; \
	wait $$w2 || { echo "coord-smoke: worker 2 failed"; cat "$$d/w2.log"; exit 1; }; \
	wait $$coord || { echo "coord-smoke: coordinator failed"; cat "$$d/coord.log"; exit 1; }; \
	"$$d/fp8bench" -exp table3 -coverage -cache-dir "$$d/store" | tee "$$d/cov.txt"; \
	grep -q "all experiment grids complete" "$$d/cov.txt" || { \
		echo "coord-smoke: coordinated store incomplete"; cat "$$d/coord.log"; exit 1; }; \
	"$$d/fp8bench" -exp table3 -workers 1 -no-cache > "$$d/ref.txt"; \
	"$$d/fp8bench" -exp table3 -workers 1 -cache-dir "$$d/store" > "$$d/warm.txt"; \
	grep -q ", 0 misses," "$$d/warm.txt" || { \
		echo "coord-smoke: warm run over coordinated store had misses:"; \
		grep "result store" "$$d/warm.txt"; exit 1; }; \
	grep -v "^(" "$$d/ref.txt" > "$$d/r1"; grep -v "^(" "$$d/warm.txt" > "$$d/r2"; \
	cmp "$$d/r1" "$$d/r2" || { \
		echo "coord-smoke: coordinated report differs from local run"; exit 1; }; \
	echo "coord-smoke: sweep complete, killed worker survived, report identical, 0 misses"

# Chaos smoke: the fault-injection layer (internal/faultline) batters a
# coordinated table3 sweep with a seeded plan spanning four fault kinds
# across three layers — silent store corruption and a failed rename
# (store), HTTP 500 bursts and dropped responses (coordinator), crash
# and transport errors (workers) — then proves the recovery story:
#  1. the sweep still completes (exit-3 injected crash tolerated);
#  2. fp8fsck exits nonzero on the damaged store, 0 after -repair;
#  3. -coverage exits nonzero on the repaired (now-incomplete) store;
#  4. a clean second round recomputes exactly the quarantined cells;
#  5. the healed store's warm report is byte-identical to an
#     undisturbed -workers 1 run with 0 misses;
#  6. -warm-from fills a cold store from the coordinator's /v1/cell
#     endpoint to full coverage.
chaos-smoke:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/fp8bench" ./cmd/fp8bench; \
	$(GO) build -o "$$d/fp8coord" ./cmd/fp8coord; \
	$(GO) build -o "$$d/fp8fsck" ./cmd/fp8fsck; \
	"$$d/fp8bench" -exp table3 -workers 1 -no-cache > "$$d/ref.txt"; \
	FP8_FAULTS="seed=7;resultstore.save.temp=corrupt:0.5@5x2;resultstore.save.rename=err@11x1;coord.server.push=http500@3x4;coord.server.lease=drop@4x3" \
	"$$d/fp8coord" -exp table3 -cache-dir "$$d/store" -addr 127.0.0.1:0 \
		-addr-file "$$d/addr" -lease-ttl 10s -once -linger 5s 2> "$$d/coord1.log" & coord=$$!; \
	for i in $$(seq 50); do [ -s "$$d/addr" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr" ] || { echo "chaos-smoke: no address published"; cat "$$d/coord1.log"; exit 1; }; \
	url=$$(cat "$$d/addr"); \
	FP8_FAULTS="seed=13;coord.client.push=crash" \
		"$$d/fp8bench" -worker "$$url" -worker-name doomed -no-cache 2> "$$d/doomed.log" & doomed=$$!; \
	FP8_FAULTS="seed=11;coord.client.push=err%0.3x3" \
		"$$d/fp8bench" -worker "$$url" -worker-name w1 -no-cache 2> "$$d/w1.log" & w1=$$!; \
	set +e; wait $$doomed; dstatus=$$?; set -e; \
	[ $$dstatus -eq 3 ] || { echo "chaos-smoke: doomed worker exited $$dstatus, want injected-crash exit 3"; \
		cat "$$d/doomed.log"; exit 1; }; \
	wait $$w1 || { echo "chaos-smoke: surviving worker failed"; cat "$$d/w1.log"; exit 1; }; \
	wait $$coord || { echo "chaos-smoke: chaos-round coordinator failed"; cat "$$d/coord1.log"; exit 1; }; \
	if "$$d/fp8fsck" "$$d/store" > "$$d/fsck1.txt"; then \
		echo "chaos-smoke: fsck exit 0 on the battered store (no damage injected?)"; \
		cat "$$d/fsck1.txt"; exit 1; fi; \
	grep -q "DAMAGE" "$$d/fsck1.txt" || { echo "chaos-smoke: no DAMAGE findings"; cat "$$d/fsck1.txt"; exit 1; }; \
	"$$d/fp8fsck" -repair "$$d/store" > "$$d/fsck2.txt" || { \
		echo "chaos-smoke: fsck -repair failed"; cat "$$d/fsck2.txt"; exit 1; }; \
	if "$$d/fp8bench" -exp table3 -coverage -cache-dir "$$d/store" > "$$d/cov1.txt"; then \
		echo "chaos-smoke: -coverage exit 0 on the quarantine-gapped store"; cat "$$d/cov1.txt"; exit 1; fi; \
	"$$d/fp8coord" -exp table3 -cache-dir "$$d/store" -addr 127.0.0.1:0 \
		-addr-file "$$d/addr2" -lease-ttl 10s -once -linger 5s 2> "$$d/coord2.log" & coord2=$$!; \
	for i in $$(seq 50); do [ -s "$$d/addr2" ] && break; sleep 0.1; done; \
	url2=$$(cat "$$d/addr2"); \
	"$$d/fp8bench" -worker "$$url2" -worker-name healer -no-cache 2> "$$d/healer.log" || { \
		echo "chaos-smoke: heal worker failed"; cat "$$d/healer.log"; exit 1; }; \
	wait $$coord2 || { echo "chaos-smoke: heal-round coordinator failed"; cat "$$d/coord2.log"; exit 1; }; \
	"$$d/fp8fsck" "$$d/store" > /dev/null || { echo "chaos-smoke: healed store still unhealthy"; exit 1; }; \
	"$$d/fp8bench" -exp table3 -coverage -cache-dir "$$d/store" > "$$d/cov2.txt" || { \
		echo "chaos-smoke: healed store incomplete"; cat "$$d/cov2.txt"; exit 1; }; \
	"$$d/fp8bench" -exp table3 -workers 1 -cache-dir "$$d/store" > "$$d/warm.txt"; \
	grep -q ", 0 misses," "$$d/warm.txt" || { \
		echo "chaos-smoke: warm run over healed store had misses:"; \
		grep "result store" "$$d/warm.txt"; exit 1; }; \
	grep -v "^(" "$$d/ref.txt" > "$$d/r1"; grep -v "^(" "$$d/warm.txt" > "$$d/r2"; \
	cmp "$$d/r1" "$$d/r2" || { \
		echo "chaos-smoke: healed report differs from undisturbed run"; exit 1; }; \
	"$$d/fp8coord" -exp table3 -cache-dir "$$d/store" -addr 127.0.0.1:0 \
		-addr-file "$$d/addr3" -once -linger 15s 2> "$$d/coord3.log" & coord3=$$!; \
	for i in $$(seq 50); do [ -s "$$d/addr3" ] && break; sleep 0.1; done; \
	url3=$$(cat "$$d/addr3"); \
	"$$d/fp8bench" -warm-from "$$url3" -exp table3 -cache-dir "$$d/coldstore" > "$$d/warmfrom.txt" || { \
		echo "chaos-smoke: -warm-from failed"; cat "$$d/warmfrom.txt"; exit 1; }; \
	wait $$coord3 || { echo "chaos-smoke: warm-source coordinator failed"; cat "$$d/coord3.log"; exit 1; }; \
	"$$d/fp8bench" -exp table3 -coverage -cache-dir "$$d/coldstore" > /dev/null || { \
		echo "chaos-smoke: warm-from store incomplete"; exit 1; }; \
	echo "chaos-smoke: sweep survived 4 fault kinds, fsck repaired, report identical, warm-from complete"

# Serving smoke: fp8serve on a small quantized model at two worker
# counts. The -check audit bit-compares every served row (planned,
# batched) against an unplanned single-sample forward, and the command
# exits nonzero on any mismatch or zero throughput.
serve-smoke:
	$(GO) run ./cmd/fp8serve -model cifar_resnet20 -recipe e4m3 \
		-workers 1,2 -requests 64 -batch 4

# Short bounded pass over each native fuzz target (the codec oracle
# equivalence); run with a larger FUZZTIME locally to dig deeper.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzEncodeRoundTrip -fuzztime=$(FUZZTIME) ./internal/fp8
	$(GO) test -run=NONE -fuzz=FuzzQuantizeScaledSlice -fuzztime=$(FUZZTIME) ./internal/fp8

# Full-suite coverage profile + combined floor check for the
# floor-governed packages (harness, resultstore, kernels, analyzers,
# coord).
cover-check:
	$(GO) test -coverprofile=coverage.out ./...
	@awk -v floor=$(COVER_FLOOR) -F'[ ]' ' \
		NR > 1 && $$1 ~ /^fp8quant\/internal\/(harness|resultstore|tensor\/kernels|analyzers|coord|faultline)\//{ \
			total += $$2; if ($$3 > 0) covered += $$2 } \
		END { \
			if (total == 0) { print "cover-check: no statements matched"; exit 1 } \
			pct = 100 * covered / total; \
			printf "harness+resultstore+kernels+analyzers+coord+faultline combined coverage: %.1f%% (floor %.1f%%)\n", pct, floor; \
			exit (pct < floor) }' coverage.out

ci: build lint test serve-smoke coord-smoke chaos-smoke
