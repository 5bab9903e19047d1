# Developer entry points. CI runs the same targets so local runs and
# the workflow cannot drift.

BENCH     ?= .
BENCHTIME ?= 1s
COUNT     ?= 3
OUT       ?= BENCH_results.json

.PHONY: build test race bench fuzz-smoke lint

build:
	go build ./...

test:
	go test ./...

# lint is the static gate: formatting, go vet, and plclint — the
# repo's own analyzers (detrand, maporder, journalerr) plus the
# //plclint:noalloc escape gate over the annotated hot functions.
# See docs/LINTING.md.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...
	go run ./cmd/plclint ./...

race:
	go test -race ./...

# bench captures the benchmark baseline: every Benchmark* with
# -benchmem, COUNT runs each (benchstat wants repeated samples), parsed
# into OUT (default BENCH_results.json, the committed baseline) with the
# raw text embedded. Tune time/count via `make bench BENCHTIME=1x
# COUNT=1` for a quick smoke, and point OUT elsewhere so a smoke run
# leaves the baseline alone.
bench:
	go test -run=XXX -bench='$(BENCH)' -benchmem -benchtime=$(BENCHTIME) -count=$(COUNT) ./... > bench.out
	go run ./cmd/benchjson < bench.out > $(OUT)
	@rm -f bench.out
	@echo "wrote $(OUT)"

# fuzz-smoke gives each scenario/campaign fuzzer a short budget — the
# CI regression net; long exploratory runs raise -fuzztime locally.
fuzz-smoke:
	go test ./internal/scenario -run=XXX -fuzz=FuzzSpecDecode -fuzztime=15s
	go test ./internal/scenario -run=XXX -fuzz=FuzzNormalizeIdempotent -fuzztime=15s
	go test ./internal/campaign -run=XXX -fuzz=FuzzCampaignDecode -fuzztime=15s
	go test ./internal/campaign -run=XXX -fuzz=FuzzCampaignExpand -fuzztime=15s
