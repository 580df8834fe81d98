GO ?= go

# Minimum combined statement coverage (%) for internal/harness +
# internal/resultstore + internal/tensor/kernels + internal/analyzers +
# internal/coord + internal/faultline. 71.2% was measured when the
# floor was introduced with the harness and result store; the kernels
# package, the fp8vet analyzer suite, the sweep coordinator and the
# fault-injection layer joined it later, none lowering it. cover-check
# fails CI if the combined figure regresses below this.
COVER_FLOOR ?= 71.0

.PHONY: all build vet vet-contracts fma-audit alloc-audit lint fmt fmt-check test bench-test bench bench-json bench-gate bench-kernels bench-trend tiers arch386 smoke coord-smoke chaos-smoke fuzz exhaustive cover-check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The contract analyzer suite (cmd/fp8vet): mapiter, nondeterm,
# floatorder, atomicwrite, cellpurity, unused. A hard CI gate — any
# unsuppressed finding fails the build.
vet-contracts:
	$(GO) run ./cmd/fp8vet ./...

# Fused multiply-add audit: cross-compile internal/nn, internal/quant,
# internal/evalx, internal/fp8, internal/textgen, internal/tensor,
# internal/data, internal/models, internal/diffusion and
# internal/harness for arm64, ppc64le, s390x, riscv64 and loong64 with
# the assembly listing and fail on any fused multiply-add inside one of their
# symbols. amd64 emits none, so one on another target would let its
# layer outputs, calibration thresholds, report statistics, the FP8
# oracle, the beam scores that pick Table 4's generations, the weights
# and percentiles tensor computes, the synthetic inputs, the models'
# initial weights, the diffusion sampler's latents or the figure
# statistics harness renders round differently. The mnemonics differ
# by target (FMADDD on arm64, riscv64 and loong64, a bare FMADD on
# ppc64le and s390x, FNMSUBD, ...), so the match takes an optional
# S/D/F suffix. The audit attributes an op to the package of the
# symbol it sits in, so tensor code inlined into data is checked as
# data. internal/coord is audited too: it owns the schedule and the
# ingest of every payload. A listing without a symbol of one of the
# packages fails too, so the check cannot pass vacuously.
fma-audit:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; pkgs="nn quant evalx fp8 textgen tensor data models diffusion harness coord"; \
	for arch in arm64 ppc64le s390x riscv64 loong64; do \
	GOARCH=$$arch $(GO) build -gcflags=-S $$(for p in $$pkgs; do echo ./internal/$$p; done) 2> "$$out" || { cat "$$out"; exit 1; }; \
	awk -v pkgs="$$pkgs" -v arch="$$arch" ' \
		BEGIN { n = split(pkgs, p, " "); for (i = 1; i <= n; i++) audited["fp8quant/internal/" p[i]] = 1 } \
		/ STEXT / { sym = $$1; pkg = sym; sub(/\.[^\/]*$$/, "", pkg); in_pkg = pkg in audited; if (in_pkg) { seen[pkg]++; total++ } } \
		in_pkg && /\tFN?M(ADD|SUB)[SDF]?\t/ { print "fma-audit: fused op in " sym " (" arch "):" $$0; bad++ } \
		END { for (d in audited) if (!seen[d]) { print "fma-audit: no " d " symbol in the " arch " listing"; bad++ } \
			if (bad) exit 1; \
			printf "fma-audit: %d symbols in %d packages, no fused multiply-add (%s)\n", total, n, arch }' "$$out"; \
	done

# Allocation audit: escape analysis (-gcflags=-m) of the packages a
# sweep cell runs through must report no "... argument escapes to
# heap", a variadic argument slice heap-allocated at every call
# (Tensor.At/Set indices once cost ~445k objects a CNN cell). tensor
# holds the arena every planned forward carves from. A listing without
# one of the packages fails too, so the check cannot pass vacuously.
ALLOC_AUDIT_PKGS = data nn models quant evalx diffusion tensor
alloc-audit:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) build -gcflags=-m $(addprefix ./internal/,$(ALLOC_AUDIT_PKGS)) 2> "$$out" || { cat "$$out"; exit 1; }; \
	awk -v pkgs="$(ALLOC_AUDIT_PKGS)" ' \
		BEGIN { n = split(pkgs, p, " "); for (i = 1; i <= n; i++) audited["internal/" p[i]] = 1 } \
		{ dir = match($$0, /^internal\/[a-z]+\//) ? substr($$0, 1, RLENGTH - 1) : "" } \
		dir in audited { seen[dir]++ } \
		dir in audited && /: \.\.\. argument escapes to heap$$/ { print "alloc-audit: " $$0; bad++ } \
		END { for (d in audited) if (!seen[d]) { print "alloc-audit: no escape analysis listed for " d; bad++ } \
			if (bad) exit 1; \
			printf "alloc-audit: %d packages, no variadic argument escapes to heap\n", n }' "$$out"

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

# The benchmark module's tests (bench/ is its own module and compiles
# against resultstore, harness and coord, so an API change can break it
# without failing the main module's build).
bench-test:
	$(GO) -C bench test ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# The kernel-layer micro-benchmarks (blocked GEMM vs the naive loop,
# im2col conv vs the direct loop, the FP8 fake-quant slice loop vs
# per-element calls, planned vs unplanned module forwards — the
# planned ones must hold 0 allocs/op under bench-gate) and a session
# network's warm Quantize → AccuracyAgainst → Release cycle over the
# six Table-2 recipes (BenchmarkQuantizeWarm, whose allocs/op is the
# quantization's per-cell heap cost), and a cell's bookkeeping through
# the cache layers: a fresh cell persisted to a temp store plus a memo
# hit (BenchmarkCellBookkeeping), and a fleet worker's steady-state
# cycle over a loopback coordinator: a push with Next, its ingest and
# the answer carrying the next cell (BenchmarkFleetCell, whose
# allocs/op is the fleet wire's per-cell heap cost on both sides), and
# one zoo network's planned forward on a fresh plan
# (BenchmarkArenaFootprint, whose bytes/op is the forward arena's
# chunk bytes) and one Quantize/Release cycle into a fresh cell arena
# (BenchmarkCellArenaFootprint, whose bytes/op is the cell arena's
# chunk bytes and so pins its chunk floor). One fast iteration set;
# used as the CI smoke step.
KERNEL_BENCH = BenchmarkMatmulT|BenchmarkMatmulTNaive|BenchmarkConv2dIm2col|BenchmarkConv2dDirect|BenchmarkBatchMatMul|BenchmarkBatchEncode|BenchmarkForwardUnplanned|BenchmarkForwardPlanned|BenchmarkQuantizeWarm|BenchmarkCellBookkeeping|BenchmarkFleetCell|BenchmarkArenaFootprint|BenchmarkCellArenaFootprint
KERNEL_BENCH_PKGS = ./internal/tensor/kernels ./internal/nn ./internal/fp8 ./internal/evalx ./internal/harness ./internal/coord ./internal/models
bench-kernels:
	$(GO) test -run xxx -bench '$(KERNEL_BENCH)' -benchtime 1x $(KERNEL_BENCH_PKGS)

# Appends one dated entry (ns/op, MB/s, B/op, allocs/op per kernel
# micro-benchmark) to BENCH_kernels.json, so the perf trajectory is
# tracked across PRs as an in-repo diffable history. BENCHTIME trades
# precision for runtime (the checked-in entries use the default). Both
# this and bench-gate run on one CPU, as the recorded entries did, so
# recorded ns/op stays comparable across hosts; kernels run on the
# calling goroutine, so allocs/op does not depend on the core count.
BENCHTIME ?= 300ms
bench-json:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	GOMAXPROCS=1 $(GO) test -run xxx -bench '$(KERNEL_BENCH)' -benchtime $(BENCHTIME) -benchmem \
		$(KERNEL_BENCH_PKGS) > "$$out" || \
		{ cat "$$out"; echo "bench-json: benchmark run failed"; exit 1; }; \
	$(GO) run ./cmd/benchgate -append -benchtime $(BENCHTIME) -json BENCH_kernels.json "$$out"

# CI gate on the deterministic benchmark counters: allocs/op and
# bytes/op against the latest recorded BENCH_kernels.json entry.
# Wall-clock is deliberately not gated — it flaps on shared VMs.
# 100x iterations amortize a one-time allocation inside a timed loop
# (benchmarks warm their arenas before the timer; the unplanned
# forwards allocate the same every iteration) while staying fast
# enough for CI.
BENCH_GATE_TIME ?= 100x
bench-gate:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	GOMAXPROCS=1 $(GO) test -run xxx -bench '$(KERNEL_BENCH)' -benchtime $(BENCH_GATE_TIME) -benchmem \
		$(KERNEL_BENCH_PKGS) > "$$out" || \
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

# Coordinated-sweep smoke: fp8coord + pull-based fp8bench workers
# complete table3 over HTTP into a fresh store. One worker is killed
# mid-sweep (SIGKILL, no drain) to prove a lost lease costs one
# -lease-ttl timeout, not the sweep. Afterwards -coverage must report
# the store complete, the store must equal (diff -r) the one an
# uncoordinated -workers 1 run fills, a warm run against it must have 0
# misses, and its report must be byte-identical to that local run's
# (timing/cache footer lines, which start with "(", are excluded). The
# EXIT trap kills the background jobs still running (bg lists them
# until they are waited for), so a failed step never leaves a -once
# coordinator running and holding the recipe's output open. It sends
# SIGKILL: on SIGTERM a coordinator drains, waiting for a dead worker's
# lease to expire.
coord-smoke:
	@set -e; d=$$(mktemp -d); bg=; trap 'kill -9 $$bg 2> /dev/null || true; wait; rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/fp8bench" ./cmd/fp8bench; \
	$(GO) build -o "$$d/fp8coord" ./cmd/fp8coord; \
	"$$d/fp8coord" -exp table3 -cache-dir "$$d/store" -addr 127.0.0.1:0 \
		-addr-file "$$d/addr" -lease-ttl 10s -once -linger 5s 2> "$$d/coord.log" & \
	coord=$$!; bg="$$bg $$coord"; \
	for i in $$(seq 50); do [ -s "$$d/addr" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr" ] || { echo "coord-smoke: no address published"; cat "$$d/coord.log"; exit 1; }; \
	url=$$(cat "$$d/addr"); \
	"$$d/fp8bench" -worker "$$url" -worker-name doomed -no-cache 2> /dev/null & doomed=$$!; bg="$$bg $$doomed"; \
	sleep 1; kill -9 $$doomed 2> /dev/null || true; \
	"$$d/fp8bench" -worker "$$url" -worker-name w1 -no-cache 2> "$$d/w1.log" & w1=$$!; bg="$$bg $$w1"; \
	"$$d/fp8bench" -worker "$$url" -worker-name w2 -no-cache 2> "$$d/w2.log" & w2=$$!; bg="$$bg $$w2"; \
	wait $$w1 || { echo "coord-smoke: worker 1 failed"; cat "$$d/w1.log"; exit 1; }; \
	wait $$w2 || { echo "coord-smoke: worker 2 failed"; cat "$$d/w2.log"; exit 1; }; \
	wait $$coord || { echo "coord-smoke: coordinator failed"; cat "$$d/coord.log"; exit 1; }; \
	bg=; \
	"$$d/fp8bench" -exp table3 -coverage -cache-dir "$$d/store" | tee "$$d/cov.txt"; \
	grep -q "all experiment grids complete" "$$d/cov.txt" || { \
		echo "coord-smoke: coordinated store incomplete"; cat "$$d/coord.log"; exit 1; }; \
	"$$d/fp8bench" -exp table3 -workers 1 -cache-dir "$$d/local" > "$$d/ref.txt"; \
	diff -r "$$d/store" "$$d/local" || { \
		echo "coord-smoke: coordinated store differs from a local run's"; exit 1; }; \
	"$$d/fp8bench" -exp table3 -workers 1 -cache-dir "$$d/store" > "$$d/warm.txt"; \
	grep -q ", 0 misses," "$$d/warm.txt" || { \
		echo "coord-smoke: warm run over coordinated store had misses:"; \
		grep "result store" "$$d/warm.txt"; exit 1; }; \
	grep -v "^(" "$$d/ref.txt" > "$$d/r1"; grep -v "^(" "$$d/warm.txt" > "$$d/r2"; \
	cmp "$$d/r1" "$$d/r2" || { \
		echo "coord-smoke: coordinated report differs from local run"; exit 1; }; \
	echo "coord-smoke: sweep complete, killed worker survived, store and report identical, 0 misses"

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
# As in coord-smoke, the EXIT trap kills the background jobs still
# running when a step fails.
chaos-smoke:
	@set -e; d=$$(mktemp -d); bg=; trap 'kill -9 $$bg 2> /dev/null || true; wait; rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/fp8bench" ./cmd/fp8bench; \
	$(GO) build -o "$$d/fp8coord" ./cmd/fp8coord; \
	$(GO) build -o "$$d/fp8fsck" ./cmd/fp8fsck; \
	"$$d/fp8bench" -exp table3 -workers 1 -no-cache > "$$d/ref.txt"; \
	FP8_FAULTS="seed=7;resultstore.save.temp=corrupt:0.5@5x2;resultstore.save.rename=err@11x1;coord.server.push=http500@3x4;coord.server.lease=drop@4x3" \
	"$$d/fp8coord" -exp table3 -cache-dir "$$d/store" -addr 127.0.0.1:0 \
		-addr-file "$$d/addr" -lease-ttl 10s -once -linger 5s 2> "$$d/coord1.log" & coord=$$!; bg="$$bg $$coord"; \
	for i in $$(seq 50); do [ -s "$$d/addr" ] && break; sleep 0.1; done; \
	[ -s "$$d/addr" ] || { echo "chaos-smoke: no address published"; cat "$$d/coord1.log"; exit 1; }; \
	url=$$(cat "$$d/addr"); \
	FP8_FAULTS="seed=13;coord.client.push=crash" \
		"$$d/fp8bench" -worker "$$url" -worker-name doomed -no-cache 2> "$$d/doomed.log" & doomed=$$!; bg="$$bg $$doomed"; \
	FP8_FAULTS="seed=11;coord.client.push=err%0.3x3" \
		"$$d/fp8bench" -worker "$$url" -worker-name w1 -no-cache 2> "$$d/w1.log" & w1=$$!; bg="$$bg $$w1"; \
	set +e; wait $$doomed; dstatus=$$?; set -e; \
	[ $$dstatus -eq 3 ] || { echo "chaos-smoke: doomed worker exited $$dstatus, want injected-crash exit 3"; \
		cat "$$d/doomed.log"; exit 1; }; \
	wait $$w1 || { echo "chaos-smoke: surviving worker failed"; cat "$$d/w1.log"; exit 1; }; \
	wait $$coord || { echo "chaos-smoke: chaos-round coordinator failed"; cat "$$d/coord1.log"; exit 1; }; \
	bg=; \
	if "$$d/fp8fsck" "$$d/store" > "$$d/fsck1.txt"; then \
		echo "chaos-smoke: fsck exit 0 on the battered store (no damage injected?)"; \
		cat "$$d/fsck1.txt"; exit 1; fi; \
	grep -q "DAMAGE" "$$d/fsck1.txt" || { echo "chaos-smoke: no DAMAGE findings"; cat "$$d/fsck1.txt"; exit 1; }; \
	"$$d/fp8fsck" -repair "$$d/store" > "$$d/fsck2.txt" || { \
		echo "chaos-smoke: fsck -repair failed"; cat "$$d/fsck2.txt"; exit 1; }; \
	if "$$d/fp8bench" -exp table3 -coverage -cache-dir "$$d/store" > "$$d/cov1.txt"; then \
		echo "chaos-smoke: -coverage exit 0 on the quarantine-gapped store"; cat "$$d/cov1.txt"; exit 1; fi; \
	"$$d/fp8coord" -exp table3 -cache-dir "$$d/store" -addr 127.0.0.1:0 \
		-addr-file "$$d/addr2" -lease-ttl 10s -once -linger 5s 2> "$$d/coord2.log" & coord2=$$!; bg="$$bg $$coord2"; \
	for i in $$(seq 50); do [ -s "$$d/addr2" ] && break; sleep 0.1; done; \
	url2=$$(cat "$$d/addr2"); \
	"$$d/fp8bench" -worker "$$url2" -worker-name healer -no-cache 2> "$$d/healer.log" || { \
		echo "chaos-smoke: heal worker failed"; cat "$$d/healer.log"; exit 1; }; \
	wait $$coord2 || { echo "chaos-smoke: heal-round coordinator failed"; cat "$$d/coord2.log"; exit 1; }; \
	bg=; \
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
		-addr-file "$$d/addr3" -once -linger 15s 2> "$$d/coord3.log" & coord3=$$!; bg="$$bg $$coord3"; \
	for i in $$(seq 50); do [ -s "$$d/addr3" ] && break; sleep 0.1; done; \
	url3=$$(cat "$$d/addr3"); \
	"$$d/fp8bench" -warm-from "$$url3" -exp table3 -cache-dir "$$d/coldstore" > "$$d/warmfrom.txt" || { \
		echo "chaos-smoke: -warm-from failed"; cat "$$d/warmfrom.txt"; exit 1; }; \
	wait $$coord3 || { echo "chaos-smoke: warm-source coordinator failed"; cat "$$d/coord3.log"; exit 1; }; \
	bg=; \
	"$$d/fp8bench" -exp table3 -coverage -cache-dir "$$d/coldstore" > /dev/null || { \
		echo "chaos-smoke: warm-from store incomplete"; exit 1; }; \
	echo "chaos-smoke: sweep survived 4 fault kinds, fsck repaired, report identical, warm-from complete"

# Kernel differential tests once per forced GEMM tier, with the data
# generators, evalx's kept-path identity tests (TestSplit*: the packed
# kept samples against the full-split oracle) and the zoo digests
# (TestPlannedForwardBitIdentical: every model's outputs in FP32,
# static and dynamic E4M3 and INT8 against the tier's key of
# internal/models/testdata/zoo_golden.json). The pin is honored by the
# kernels, nn, evalx and models TestMains; a tier the CPU cannot
# execute (e.g. avx2 without FMA) is a logged vacuous pass rather than
# a failure, so the loop is safe on any amd64 host. -count=1 because
# the test cache does not key on FP8_KERNEL.
KERNEL_TIERS = generic sse avx2
tiers:
	@set -e; for v in $(KERNEL_TIERS); do \
		echo "tiers: FP8_KERNEL=$$v"; \
		FP8_KERNEL=$$v $(GO) test -count=1 ./internal/tensor/kernels/ ./internal/nn/ ./internal/data/; \
		FP8_KERNEL=$$v $(GO) test -count=1 -run TestSplit ./internal/evalx/; \
		FP8_KERNEL=$$v $(GO) test -count=1 -run TestPlannedForwardBitIdentical ./internal/models/; \
	done

# The portable-code tests on a 32-bit target: GOARCH=386 binaries run
# natively on amd64 hosts, with no assembly GEMM tier (the generic one
# runs) and 32-bit int, so this covers the codec, tensors and arena,
# kernels, nn, quant, the data generators and the analyzers'
# other-configuration variants, and evalx's kept-path identity tests.
# TestGoldenDigests and TestPlannedForwardBitIdentical check the
# 386/generic keys of the harness golden file and of the zoo digests
# (internal/models/testdata/zoo_golden.json): the same digests as
# amd64/generic.
arch386:
	GOARCH=386 $(GO) test -count=1 ./internal/fp8 ./internal/tensor/... ./internal/nn ./internal/quant ./internal/data ./internal/analyzers
	GOARCH=386 $(GO) test -count=1 -run TestSplit ./internal/evalx
	GOARCH=386 $(GO) test -count=1 -run TestGoldenDigests ./internal/harness
	GOARCH=386 $(GO) test -count=1 -run TestPlannedForwardBitIdentical ./internal/models

# Short bounded pass over each native fuzz target (the codec oracle
# equivalence, the fault-plan round trip, read-path/fsck agreement on
# arbitrary cell-file bytes, arena scopes against a heap model, and the
# coordinator's push and lease bodies);
# run with a larger FUZZTIME locally to dig deeper.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzEncodeRoundTrip -fuzztime=$(FUZZTIME) ./internal/fp8
	$(GO) test -run=NONE -fuzz=FuzzQuantizeScaledSlice -fuzztime=$(FUZZTIME) ./internal/fp8
	$(GO) test -run=NONE -fuzz=FuzzParsePlan -fuzztime=$(FUZZTIME) ./internal/faultline
	$(GO) test -run=NONE -fuzz=FuzzCellFile -fuzztime=$(FUZZTIME) ./internal/resultstore
	$(GO) test -run=NONE -fuzz=FuzzArenaScopes -fuzztime=$(FUZZTIME) ./internal/tensor
	$(GO) test -run=NONE -fuzz=FuzzPushBody -fuzztime=$(FUZZTIME) ./internal/coord
	$(GO) test -run=NONE -fuzz=FuzzLeaseBody -fuzztime=$(FUZZTIME) ./internal/coord

# Exhaustive codec proof: TestQuantizeMatchesOracle with stride 1 (the
# exhaustive build tag) checks Codec.Quantize and QuantizeSlice against
# the float64 oracle on all 2^32 float32 inputs for every test format
# (~17 min on 2 vCPUs). Tier-1 runs the same test on every 4097th input.
exhaustive:
	$(GO) test -tags exhaustive -count=1 -run TestQuantizeMatchesOracle -timeout 60m ./internal/fp8

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

ci: build lint fma-audit alloc-audit test bench-test tiers arch386 smoke coord-smoke chaos-smoke
