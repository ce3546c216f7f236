# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-full race fuzz bench bench-selfcheck bench-go bench-json bench-check figures figures-fast demo-overload obs-demo chaos chaos-demo proxy-demo proxy-test sysfault sysfault-demo lint invariants verify clean

all: build test

build:
	go build ./...
	go vet ./...

# Unit tests only (integration-scale experiment sweeps skipped).
test:
	go test -short ./...

# Everything, including the figure-shape integration tests (~2 min).
test-full:
	go test ./...

# Unit tests under the race detector (what CI runs).
race:
	go test -race -short ./...

# The wire parsers against their two oracles (httpwire/oracle_test.go):
# fragmentation invariance and the net/http differential, 30 s each.
fuzz:
	for f in FuzzRequestFragmentation FuzzResponseFragmentation FuzzRequestDifferential FuzzResponseDifferential; do \
		go test ./internal/httpwire -run '^$$' -fuzz "^$$f\$$" -fuzztime 30s -fuzzminimizetime 5s || exit 1; \
	done

# The repository's benchmark (bench/README.md, BENCHMARK.json): builds
# the three server binaries, runs the seven live workloads against them
# and prints every end-to-end and per-layer metric by name (~3 min).
# Narrow it with e.g. `go run ./bench -workload nio_small -notrace`.
bench:
	go run ./bench

# The benchmark's A/A check: the untraced set twice on one build; exits
# non-zero if any end-to-end metric differs past its bound. Run it first
# on a new host — a host that fails it cannot resolve a real change.
bench-selfcheck:
	go run ./bench -selfcheck

# One iteration of every `go test` benchmark, including the per-figure
# simulator harness (the rows bench-json records).
bench-go:
	go test -bench=. -benchmem -benchtime=1x ./...

# The recorded perf trajectory (ROADMAP item 3): the same bench run,
# converted to machine-readable BENCH_<date>.json and committed, so the
# hot-path work has a baseline to diff against.
bench-json:
	go test -bench=. -benchmem -benchtime=1x ./... | go run ./cmd/benchjson -out BENCH_$$(date +%F).json

# The perf regression gate: rerun the bench suite and diff it against
# the newest committed BENCH_*.json. Fails if replies/s fell or p99-ms
# rose by more than 15% on any benchmark present in both runs; on a
# machine with a different CPU than the baseline it reports and skips.
bench-check:
	@base=$$(ls BENCH_*.json 2>/dev/null | sort | tail -1); \
	if [ -z "$$base" ]; then echo "no committed BENCH_*.json baseline; run make bench-json first" >&2; exit 1; fi; \
	echo "baseline: $$base"; \
	go test -bench=. -benchmem -benchtime=1x ./... | go run ./cmd/benchjson -check $$base

# Regenerate every paper figure at full scale (several minutes). The
# raw series land in expsim_full.txt, which is git-ignored.
figures:
	go run ./cmd/expsim | tee expsim_full.txt

figures-fast:
	go run ./cmd/expsim -fast

# Live showcase of adaptive overload control, panic isolation, and the
# stall watchdog (~15 s).
demo-overload:
	go run ./examples/overload

# Live showcase of the observability plane: phase-latency decomposition
# and per-connection trace of the nio server under load (~3 s).
obs-demo:
	go run ./examples/obs

# The scripted chaos suite under the race detector: bandwidth-sweep
# regime split, fault-scenario survival, link determinism, conditional
# requests through a lossy link (~40 s). Set CHAOS_SEED to vary the
# emulated link's seed.
chaos:
	go test -race -v -run 'TestChaos' .

# Live bandwidth sweep table: both servers behind the emulated link,
# measured goodput vs discrete-event prediction (~12 s).
chaos-demo:
	go run ./examples/chaos

# Live showcase of the serving tier: nioproxy balancing both server
# architectures under load, with a mid-ramp backend kill, ejection,
# revival, and the tier-merged telemetry rollup (~6 s).
proxy-demo:
	go run ./examples/proxy

# The serving-tier suite under the race detector: proxy unit tests,
# rollup merge/scrape tests, and the end-to-end parity/failover/shed
# integration tests.
proxy-test:
	go test -race -count=1 ./internal/proxy/ ./internal/obs/rollup/
	go test -race -count=1 -run 'TestProxy' .

# The deterministic fault-injection suite under the race detector:
# seeded EMFILE/ENOBUFS/short-write/sendfile/connect faults against
# both servers and the proxy tier, with offline-replay determinism
# checks (~5 s). Set SYSFAULT_SEED to vary the injection seed.
sysfault:
	go test -race -count=1 -v -run 'TestSysfault|TestAcceptPendingNetworkError' .
	go test -race -count=1 ./internal/sysfault/

# Live showcase of the fault seam: the nio server under a mixed
# injection plan, hardening counters vs the fired-decision log, and
# the byte-identical offline replay (~1 s; pass a seed as the arg).
sysfault-demo:
	go run ./examples/sysfault

# Formatting, standard vet, and the custom analyzer suite (cmd/niovet):
# syscallerr, fdlife, refbalance, statssync, nonblock, plus the
# call-graph discipline analyzers loopown, loopblock, hotalloc, detrand.
lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed on:" >&2; echo "$$fmt" >&2; exit 1; fi
	go vet ./...
	go run ./cmd/niovet ./...

# Unit tests with the runtime invariant layer compiled in (refcounts,
# epoll interest set, closed-conn guards, no orphan MSG_MORE cork) under
# the race detector. The root tests that do not skip under -short run
# too: the closing-reply matrix (close_segment_test.go) and the accept
# burst (accept_burst_test.go) drive the cork through the close and the
# one-accept-per-wake policy with every assertion armed.
invariants:
	go test -tags invariants -race -short ./...

# The full local gate: build, unit tests, invariant-enabled tests, lint.
verify: build test invariants lint

clean:
	go clean ./...
