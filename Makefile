# Developer entry points; `make check` is what CI (and PR review) runs.

GO ?= go
GOFMT ?= gofmt

.PHONY: all build vet fmtcheck test race doccheck check fmt bench benchgate e2e-dist e2e-load e2e-state fuzz-smoke perfbench-test resultscheck

# The benchmark suite `make bench` records and `make benchgate` gates on.
# BenchmarkEvalDistinct is anchored so its engine-comparison sibling
# (BenchmarkEvalDistinctEngines, about a minute on the walker) stays out.
BENCHES = BenchmarkGenerateSpace|BenchmarkExploreParallel|BenchmarkKernelInterpreter|BenchmarkExhaustiveSweep|BenchmarkEvalDistinct$$|BenchmarkZeroCostTune

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmtcheck fails when any tracked Go file is not gofmt-clean. Files come
# from git ls-files so the untracked .bench_build/ module cache is never
# scanned.
fmtcheck:
	@out=$$($(GOFMT) -l $$(git ls-files '*.go')) && \
	if [ -n "$$out" ]; then echo "fmtcheck: not gofmt-clean:" >&2; echo "$$out" >&2; exit 1; fi

test:
	$(GO) test ./...

# The concurrency-heavy packages get a dedicated race pass: the parallel
# exploration engine (including memoized multi-worker space generation and
# its clblast equivalence suite), the kernel interpreter/VM (scheduler and
# register-arena pooling), the observability registry, the atfd session
# manager/journal, and the distributed evaluation fleet.
race:
	$(GO) test -race ./internal/core/... ./internal/clblast/... ./internal/oclc/... ./internal/obs/... ./internal/server/... ./internal/dist/...

# e2e-dist exercises the real binaries: atfd plus two atf-worker
# processes tune one session, one worker is killed mid-run, and the
# result must match a fleetless control run (scripts/e2e-dist.sh).
e2e-dist: build
	sh scripts/e2e-dist.sh

# e2e-load floods one atfd with 50 concurrent identical sessions through
# cmd/atf-loadgen: admission control (429 + Retry-After) must hold the
# daemon up with zero failed sessions, the cross-session caches must see
# hits, and the headline latencies are printed (scripts/e2e-load.sh).
e2e-load: build
	sh scripts/e2e-load.sh

# e2e-state kills and restarts a real atfd on one -state-dir and asserts
# via /metrics that the warm session recounts no census and recompiles no
# kernel (scripts/e2e-state.sh).
e2e-state: build
	sh scripts/e2e-state.sh

# doccheck enforces usable godoc: go vet's doc diagnostics plus a package
# comment on every package (scripts/doccheck.sh).
doccheck: vet
	sh scripts/doccheck.sh

# fuzz-smoke runs the vm-vec vs walker differential fuzzer briefly on top
# of its seed corpus (which `go test` already replays); a failing input
# lands in internal/oclc/testdata/fuzz and should be committed as a
# regression case.
fuzz-smoke:
	$(GO) test ./internal/oclc -run '^$$' -fuzz FuzzVMVecDifferential -fuzztime 10s

# perfbench is its own Go module, so `go test ./...` never reaches its
# checks of the benchmark program (BENCHMARK.json vs printed metrics).
perfbench-test:
	cd perfbench && $(GO) test .

# resultscheck fails when the steps before it left results/ different
# from the commit: only `make bench` rewrites the recorded measurements.
resultscheck:
	@out=$$(git status --porcelain -- results/) && \
	if [ -n "$$out" ]; then echo "resultscheck: results/ differs from the commit:" >&2; echo "$$out" >&2; exit 1; fi

check: vet fmtcheck doccheck build test race fuzz-smoke perfbench-test e2e-load resultscheck benchgate

# bench runs the space-generation benchmark (memo on/off × workers), the
# exploration benches (including the zero-cost framework-overhead sweep,
# BenchmarkZeroCostTune), the kernel-interpreter engine comparison (walk
# vs vm-vec) and the distinct-configuration evaluation
# sample (BenchmarkEvalDistinct), 5 samples each for
# benchdiff/benchstat. The raw text is kept in results/bench.txt and a
# machine-readable mean-ns/op summary, with the committed loadgen
# baseline (results/loadgen-bench.txt) folded in, is written to
# results/bench.json;
# scripts/benchdiff.sh diffs any mix of the two formats:
#   make bench > after.txt   # then: scripts/benchdiff.sh before.txt after.txt
#   scripts/benchdiff.sh old-bench.json results/bench.json
bench:
	@mkdir -p results
	$(GO) test -run '^$$' -bench '$(BENCHES)' -count=5 . | tee results/bench.txt
	@sh scripts/bench2json.sh results/bench.txt $$(ls results/loadgen-bench.txt 2>/dev/null) > results/bench.json

# benchgate is the performance regression gate (part of `make check`): a
# fresh -count=3 run of the bench suite diffed against the committed
# results/bench.json; any benchmark more than 25% slower fails the build.
# After an intentional perf change, re-baseline with `make bench` and
# commit the refreshed results/.
benchgate:
	@tmp=$$(mktemp) && trap 'rm -f $$tmp' EXIT && \
	$(GO) test -run '^$$' -bench '$(BENCHES)' -count=3 . > $$tmp && \
	sh scripts/benchdiff.sh -gate 25 results/bench.json $$tmp

fmt:
	$(GOFMT) -w $$(git ls-files '*.go')
