GO ?= go

# Per-package coverage floors (percent) enforced by `make cover` on the
# serving-critical packages, as pkg:floor pairs. The serve package carries
# the production HTTP surface (pool, router, swap, cache, scenarios) and is
# held to a higher floor than the rest.
COVER_FLOOR ?= 60
COVER_PKGS  ?= ./internal/serve:70 ./internal/analysis:75 ./internal/pso:70 ./internal/pipeline:$(COVER_FLOOR) ./internal/detect:$(COVER_FLOOR) ./internal/quant:$(COVER_FLOOR) ./internal/track:$(COVER_FLOOR)

.PHONY: all build binaries vet lint test short race purego arm64 bench bench-quant bench-track bench-serve bench-search bench-search-short bench-serve-short bench-json cover check ci

all: ci

build:
	$(GO) build ./...

# binaries compiles every command and example entry point so a refactor
# cannot silently break a main package that `go build ./...` would still
# cover but a bad flag default or unused import would not surface until run.
binaries:
	@for d in cmd/* examples/*; do \
		echo "build $$d"; \
		$(GO) build -o /dev/null ./$$d || exit 1; \
	done

vet:
	$(GO) vet ./...

# lint runs the repo's own static-analysis pass (cmd/skynet-lint): the
# determinism, float-hygiene, error-discipline checkers plus the
# interprocedural hotcall/lockheld/ctxflow set over every package. Zero
# unwaived findings is a CI gate. The wall time is printed so a call-graph
# performance regression shows up in `make ci` output, not just in lost
# inner-loop seconds.
lint:
	@start=$$(date +%s); \
	$(GO) run ./cmd/skynet-lint ./... ; status=$$?; \
	end=$$(date +%s); \
	echo "lint wall time: $$((end-start))s"; \
	exit $$status

# -shuffle=on randomizes test (and subtest-sibling) execution order each
# run, so inter-test state dependencies surface in CI instead of in prod.
test:
	$(GO) test -shuffle=on ./...

# short is the fast inner-loop gate: every package, training budgets
# shrunk, the whole suite in well under a minute.
short:
	$(GO) test -short ./...

# race runs the concurrency-bearing packages under the race detector: the
# parallel GEMM/conv kernels, the streaming pipeline executor (plus its
# detect-stage adapters), the batching HTTP server, the stateful tracking
# service with its session table, the analysis framework (whose lazy
# Module state is shared across checker passes), and the PSO search (its
# bounded evaluation worker pool, cached engine evaluator, and job
# service). The tests force multi-worker execution even on one CPU.
race:
	$(GO) test -race ./internal/nn/... ./internal/tensor/... ./internal/pipeline/... ./internal/detect/... ./internal/serve/... ./internal/track/... ./internal/analysis/... ./internal/pso/...

# purego runs the kernel-bearing packages with the assembly micro-kernels
# compiled out, so the portable fallback (and its dispatch seam) cannot
# rot. The same tests run again with SKYNET_KERNEL=purego on a normal
# build to cover the runtime-selection path.
purego:
	$(GO) test -tags purego ./internal/tensor ./internal/cpufeat
	SKYNET_KERNEL=purego $(GO) test ./internal/tensor ./internal/cpufeat

# arm64 cross-compiles the whole tree for the other deployment
# architecture: the build tags on the amd64 assembly must keep every
# package buildable without it.
arm64:
	GOARCH=arm64 $(GO) build ./...

bench:
	@$(GO) run ./cmd/skynet-bench -which
	$(GO) test -run xxx -bench 'BenchmarkMatMul|BenchmarkConvForwardSteadyState|BenchmarkTable2Backbones' -benchtime 10x .

# bench-quant compares the int8 GEMM kernels against float32 at SkyNet
# layer shapes; both report GOPS and operand bytes/op (the int8 path moves
# 4x fewer bytes), and -benchmem surfaces the zero-allocation contract.
bench-quant:
	@$(GO) run ./cmd/skynet-bench -which
	$(GO) test -run xxx -bench 'BenchmarkInt8GEMMShapes|BenchmarkFloatGEMMShapes' -benchmem ./internal/tensor

# bench-track regenerates BENCH_track.json, the committed tracking
# baseline: one seeded tracker evaluated under the gemm, naive, and int8
# cross-correlation backends, recording frames/sec and AO/SR per backend
# plus the int8 path's AO parity delta.
bench-track:
	$(GO) run ./cmd/skynet-bench -track-out BENCH_track.json

# bench-serve regenerates BENCH_serve.json, the committed fleet-serving
# baseline: a replica pool under scenario-driven load (diurnal ramp, burst
# with slow-loris and live tracking, hot-swap to int8 under load) at 6400
# peak closed-loop clients, asserting byte-identity between 1-replica and
# N-replica configs and a p99 SLO on the server-side latency histogram.
bench-serve:
	$(GO) run ./cmd/skynet-bench -serve-out BENCH_serve.json

# bench-search regenerates BENCH_search.json, the committed codesign-search
# baseline: a fixed-seed measured-fitness PSO job run through the search
# service (engine factors calibrated on the real float32/int8 engines,
# then pinned), with executed proofs that the trajectory is bitwise
# identical across worker counts and across kill+resume, plus an
# analytic-vs-measured latency comparison for the winning genomes.
bench-search:
	$(GO) run ./cmd/skynet-bench -search-out BENCH_search.json

# bench-search-short re-proves the same determinism contracts on a smaller
# trajectory, writing to a scratch file: the CI gate (skynet-bench exits
# non-zero if either proof fails) without touching the committed baseline.
bench-search-short:
	$(GO) run ./cmd/skynet-bench -search-out $(if $(TMPDIR),$(TMPDIR),/tmp)/BENCH_search_short.json -search-short

# bench-serve-short re-runs the serving scenario suite at a tenth of the
# committed peak (640 clients), writing to a scratch file: the CI gate for
# the 1-vs-N replica byte-identity check and the p99 SLO (skynet-bench
# exits non-zero if either fails) without touching BENCH_serve.json.
bench-serve-short:
	$(GO) run ./cmd/skynet-bench -serve-out $(if $(TMPDIR),$(TMPDIR),/tmp)/BENCH_serve_short.json -serve-clients 640

# bench-json regenerates the committed machine-readable baselines:
# BENCH_gemm.json (GFLOPS trajectory — every kernel at SkyNet GEMM shapes,
# serial, with allocation counts) and BENCH_track.json (tracking backends).
# Commit the diff when kernels change so the trajectory stays honest.
bench-json: bench-track
	$(GO) run ./cmd/skynet-bench -out BENCH_gemm.json

# cover measures statement coverage on the serving-critical packages and
# fails if any of them drops below its per-package floor.
cover:
	@fail=0; \
	for entry in $(COVER_PKGS); do \
		pkg=$${entry%:*}; floor=$${entry##*:}; \
		out=$$($(GO) test -short -cover $$pkg | tail -1); \
		echo "$$out (floor $$floor%)"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "$$pkg: no coverage reported"; fail=1; continue; fi; \
		ok=$$(awk "BEGIN{print ($$pct >= $$floor) ? 1 : 0}"); \
		if [ "$$ok" != "1" ]; then echo "$$pkg: coverage $$pct% below floor $$floor%"; fail=1; fi; \
	done; \
	exit $$fail

# ci is the single verification entry point: everything must pass before a
# commit lands. bench-search-short re-executes the search determinism
# proofs, bench-serve-short the serving identity and SLO gates; cover
# enforces the per-package floors above.
ci: vet lint test race purego arm64 build binaries bench-search-short bench-serve-short cover

# check is kept as an alias for ci (the historical name).
check: ci
