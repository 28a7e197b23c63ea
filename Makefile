GO ?= go

.PHONY: build test race bench bench-gate bench-e2e lint lint-verbose lint-json lint-test deadapi allows fmt tidy check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race runs both modules' tests under the race detector — the CI race job
## runs exactly this target.
race:
	$(GO) test -race ./...
	cd lint && $(GO) test -race ./...

## bench records the canonical benchmarks (internal/benchmarks) into a
## BENCH_<rev>.json trajectory point; bench-gate replays the pinned subset
## (benchmarks.Pinned, `unicobench -pinned -list`) and diffs it against the
## committed baseline — at 100 iterations a case, because one cold call of a
## ~150 ns case (MaestroEvaluate) measures the cache miss, not the code.
bench:
	$(GO) run ./cmd/unicobench

bench-gate:
	$(GO) run ./cmd/unicobench -pinned -benchtime 100x -out BENCH_ci.json
	$(GO) run ./cmd/unicobench -diff -tol 3 BENCH_baseline.json BENCH_ci.json

## bench-e2e smoke-runs the end-to-end co-search benchmark (bench/, declared
## in BENCHMARK.json) at its smallest sizes; drop -quick for real numbers.
bench-e2e:
	$(GO) run ./bench -quick

## lint runs unicolint (the in-repo analysis suite under lint/) over the
## whole root module: all nine analyzers, failing on any unsuppressed
## finding and on any stale allow directive. The lint module is nested so
## the root module stays dependency-free; -C .. points the driver back at
## the repo root.
lint:
	cd lint && $(GO) run ./cmd/unicolint -C .. -stale-allows ./...

lint-verbose:
	cd lint && $(GO) run ./cmd/unicolint -C .. -verbose ./...

lint-json:
	cd lint && $(GO) run ./cmd/unicolint -C .. -json ./...

lint-test:
	cd lint && $(GO) vet ./... && $(GO) test ./...

## deadapi is the dead-API census (lint/cmd/deadapi): it fails on any
## exported function or method of the root module that no non-test code
## calls, and lists the ones only bench/ or internal/benchmarks calls. The CI
## lint job runs it.
deadapi:
	cd lint && $(GO) run ./cmd/deadapi -C ..

## allows prints how many //unicolint:allow directives the non-test code
## outside bench/ and lint/ carries, per analyzer, and fails when an analyzer
## is over its budget: a new suppression has to retire an old one. The CI
## lint job runs it.
ALLOW_BUDGET = ctxflow=4 detclock=19
allows:
	@grep -rhoE --include='*.go' --exclude='*_test.go' --exclude-dir=lint --exclude-dir=bench \
		'//unicolint:allow [a-z]+' . | sort | uniq -c | awk -v budget='$(ALLOW_BUDGET)' ' \
		BEGIN { n = split(budget, b, /[ =]/); for (i = 1; i < n; i += 2) max[b[i]] = b[i+1] } \
		{ \
			line = sprintf("%-10s %3d", $$3, $$1); \
			if ($$3 in max) line = line sprintf("  (budget %d)", max[$$3]); \
			print line; \
			if ($$3 in max && $$1 > max[$$3]) over = over " " $$3; \
		} \
		END { if (over != "") { print "over the allow budget:" over > "/dev/stderr"; exit 1 } }'

fmt:
	gofmt -l .

tidy:
	$(GO) mod tidy -diff
	cd lint && $(GO) mod tidy -diff

check: fmt tidy build test race lint-test lint deadapi allows
