# Developer entry points. Everything is stdlib Go; no external tools needed
# (make lint additionally uses staticcheck when it is on PATH).

GO ?= go

.PHONY: all build test race bench repairbench fdbench perfbench experiments examples fmt vet lint smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One benchmark per paper table/figure plus ablations (see EXPERIMENTS.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Repair-engine benchmark report (BENCH_repair.json): baseline vs indexed
# engine, per-stage timings, EMD micro-benchmarks.
repairbench:
	$(GO) run ./cmd/benchrunner -repairbench BENCH_repair.json -rows 4000

# FD-discovery benchmark report (BENCH_fd.json): the Exp-1 runtime curve for
# all seven baselines plus agree-set engine-vs-baseline micro-benchmarks.
fdbench:
	$(GO) run ./cmd/benchrunner -fdbench BENCH_fd.json -discrows 4000

# One end-to-end benchmark run (perfbench/run.sh) on one workload; with
# TRACE=1 it reports the per-layer work counters (partition walks, scans,
# cache misses) next to the end-to-end metrics.
WORKLOAD ?= churn-12k
TRACE ?= 1
perfbench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed 1 --seconds 2 --trace $(TRACE)

# Paper-style experiment tables with accuracy metrics.
experiments:
	$(GO) run ./cmd/benchrunner -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/senses
	$(GO) run ./examples/monitor
	$(GO) run ./examples/inheritance
	$(GO) run ./examples/kiva
	$(GO) run ./examples/clinical

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Static analysis beyond vet. CI installs staticcheck; locally the target
# degrades to vet-only with a notice when the tool is absent.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; ran go vet only (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# End-to-end interrupt contract: a 1s-timeboxed discovery over a large
# generated workload must exit 3 with a partial result and a stage table.
smoke:
	$(GO) run ./cmd/genworkload -out /tmp/fastofd-smokework -rows 200000 -err 0.05 -inc 0.04
	$(GO) build -o /tmp/fastofd-smoke ./cmd/fastofd
	/tmp/fastofd-smoke -data /tmp/fastofd-smokework/data.csv \
		-ontology /tmp/fastofd-smokework/ontology.json \
		-no-opt -workers 0 -timeout 1s > /tmp/fastofd-smoke.out 2> /tmp/fastofd-smoke.err; \
	code=$$?; cat /tmp/fastofd-smoke.err; \
	test $$code -eq 3 && grep -q "^stage" /tmp/fastofd-smoke.err && echo "smoke: exit 3 with stage table, OK"

clean:
	$(GO) clean ./...
