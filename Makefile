GO ?= go

.PHONY: all build test vet lint scenarios daemon-smoke bench-smoke scenario-bench clean help

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
# EWMAs and job lifecycle counts, take a snapshot over HTTP (which
# renders the same view as JSON), then SIGTERM and check the final
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
	curl -sf http://127.0.0.1:18321/metrics | grep -q '^moteur_jobs{status="completed"} '; \
	curl -sf http://127.0.0.1:18321/snapshot | grep -q '"scenario": "clean-baseline"'; \
	curl -sf http://127.0.0.1:18321/snapshot | grep -q '"jobsByStatus"'; \
	kill -TERM $$pid; wait $$pid; \
	grep -q '"final": true' "$$dir/latest.json"; \
	echo "daemon-smoke: OK"

# End-to-end benchmark module smoke: run the bench/ module's own tests —
# every workload on tiny fixtures, traced and untraced, plus the stats
# and comparison helpers and the BENCHMARK.json contract. About 6 s.
bench-smoke:
	cd bench && $(GO) test ./...

# Scenario benchmarks: one BenchmarkScenario/<name> sub-benchmark per
# scenarios/*.json world (the hetero-* federation worlds, the metropolis
# 100k-job tier, storage churn, ...); two iterations so the in-benchmark
# fingerprint check compares runs.
scenario-bench:
	$(GO) test -bench BenchmarkScenario -benchmem -benchtime 2x -run '^$$' .

clean:
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
	@echo "  scenario-bench   every scenarios/*.json world, 2 iterations each"
	@echo "  clean            remove bin/"
