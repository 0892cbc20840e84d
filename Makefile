GO ?= go

.PHONY: all build test vet lint scenarios daemon-smoke bench-smoke bench campaign-bench federation-bench locality-bench wan-bench storage-bench scale-bench clean help

all: vet lint build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Determinism lint: build cmd/moteurvet (maprange, simtime, exporteddoc)
# and run it over every package through go vet's vettool protocol, so
# results are cached per package like any other vet check. gofmt rides
# along: the gate fails if any file needs reformatting.
lint:
	$(GO) build -o bin/moteurvet ./cmd/moteurvet
	$(GO) vet -vettool=$(abspath bin/moteurvet) ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: the following files need reformatting:"; echo "$$out"; exit 1; \
	fi

# Scenario library sweep: compile and run every scenarios/*.json and
# print one results row per scenario (span/p95/WAN-wait/restage). The
# same specs are pinned by the per-scenario determinism goldens in
# internal/scenario, so this sweep doubles as the CI smoke of the
# declarative world compiler.
scenarios:
	$(GO) run ./cmd/federation -scenarios 'scenarios/*.json'

# Online broker daemon smoke: boot moteurd on the clean baseline at high
# warp, submit a job over HTTP, assert /metrics serves the per-grid
# EWMAs, take a snapshot over HTTP, then SIGTERM and check the final
# on-disk snapshot landed. Exercises the whole daemon path end to end
# from outside the process, curl only.
daemon-smoke:
	$(GO) build -o bin/moteurd ./cmd/moteurd
	@set -e; \
	dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	bin/moteurd -scenario scenarios/clean-baseline.json -warp 100000 \
		-addr 127.0.0.1:18321 -snapshot-dir "$$dir" -snapshot-every 2s & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18321/healthz >/dev/null 2>&1 && break; sleep 0.1; \
	done; \
	curl -sf http://127.0.0.1:18321/healthz >/dev/null; \
	curl -sf -X POST http://127.0.0.1:18321/submit \
		-d '{"tenant":"smoke","name":"probe","runtimeSeconds":30}' | grep -q '"ids"'; \
	curl -sf http://127.0.0.1:18321/metrics | grep -q 'moteur_grid_submit_ewma_seconds{grid="g0"}'; \
	curl -sf http://127.0.0.1:18321/metrics | grep -q 'moteur_grid_queue_ewma_seconds{grid="g1"}'; \
	curl -sf http://127.0.0.1:18321/snapshot | grep -q '"scenario": "clean-baseline"'; \
	kill -TERM $$pid; wait $$pid; \
	grep -q '"final": true' "$$dir/latest.json"; \
	echo "daemon-smoke: OK"

# End-to-end benchmark module smoke: run the bench/ module's own tests —
# every workload on tiny fixtures, traced and untraced, plus the stats
# and comparison helpers and the BENCHMARK.json contract. About 6 s.
bench-smoke:
	cd bench && $(GO) test ./...

# Full benchmark suite (paper tables, ablations, enactor scaling) with
# allocation stats; the raw output is kept for cross-change comparison.
bench:
	$(GO) test -bench . -benchmem -run '^$$' . | tee BENCH_1.json

# Multi-tenant campaign benchmark (32 tenants on one shared grid); two
# iterations so the in-benchmark determinism assertion actually compares
# runs.
campaign-bench:
	$(GO) test -bench BenchmarkCampaignScale -benchmem -benchtime 2x -run '^$$' . | tee BENCH_2.json

# Federated brokering benchmark (16 tenants brokered across 4
# heterogeneous grids by the overhead-ranked policy, cross-grid
# re-brokering on); two iterations so the in-benchmark determinism
# assertion compares dispatch schedules across runs.
federation-bench:
	$(GO) test -bench BenchmarkFederationScale -benchmem -benchtime 2x -run '^$$' . | tee BENCH_3.json

# Locality-aware federated brokering benchmark (16 tenants with
# grid-resident inputs across 4 heterogeneous grids, default WAN link
# model, locality-aware ranked policy); two iterations so the in-benchmark
# determinism assertion compares makespans, dispatch schedules and WAN
# byte counts across runs.
locality-bench:
	$(GO) test -bench BenchmarkFederationLocality -benchmem -benchtime 2x -run '^$$' . | tee BENCH_4.json

# Contended WAN fabric benchmark (the locality scenario with two
# concurrent fetch legs per grid pair); two iterations so the in-benchmark
# determinism assertion compares makespans, WAN byte counts and per-grid
# WAN-wait seconds across runs.
wan-bench:
	$(GO) test -bench BenchmarkFederationContention -benchmem -benchtime 2x -run '^$$' . | tee BENCH_5.json

# Active-storage churn benchmark (finite storage elements, popularity
# eviction, k=2 replication repair, correlated storage outages); two
# iterations so the in-benchmark determinism assertion compares dispatch
# schedules, eviction totals and repair counts across runs.
storage-bench:
	$(GO) test -bench BenchmarkStorageChurn -benchmem -benchtime 2x -run '^$$' . | tee BENCH_6.json

# Metropolis-scale benchmark: 100k outputless jobs across 8 heterogeneous
# grids in 200 submission waves on the single-threaded engine. Two
# iterations so the in-benchmark determinism assertion compares result
# fingerprints across runs.
scale-bench:
	$(GO) test -bench BenchmarkFederationMetropolis -benchmem -benchtime 2x -run '^$$' . | tee BENCH_9.json

clean:
	rm -f BENCH_1.json BENCH_2.json BENCH_3.json BENCH_4.json BENCH_5.json BENCH_6.json BENCH_9.json
	rm -rf bin

help:
	@echo "Targets:"
	@echo "  all              vet + lint + build + test"
	@echo "  build            go build ./..."
	@echo "  test             go test ./...   (tier-1 verify)"
	@echo "  vet              go vet ./..."
	@echo "  lint             determinism lint (cmd/moteurvet as vettool) + gofmt -l"
	@echo "  scenarios        run the scenarios/*.json library, one results row each"
	@echo "  daemon-smoke     boot moteurd, submit over HTTP, scrape /metrics, snapshot"
	@echo "  bench-smoke      bench/ module tests, every workload briefly (~6 s)"
	@echo "  bench            full paper suite                      -> BENCH_1.json"
	@echo "  campaign-bench   32-tenant shared-grid campaign        -> BENCH_2.json"
	@echo "  federation-bench 4 grids x 16 tenants, ranked broker   -> BENCH_3.json"
	@echo "  locality-bench   skewed replicas over a WAN, ranked    -> BENCH_4.json"
	@echo "  wan-bench        contended per-pair WAN channels       -> BENCH_5.json"
	@echo "  storage-bench    SE capacity churn, eviction, repair   -> BENCH_6.json"
	@echo "  scale-bench      100k jobs x 8 grids, serial engine    -> BENCH_9.json"
	@echo "  clean            remove BENCH_*.json"
