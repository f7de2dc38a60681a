GO ?= go

.PHONY: build test race loc bench-snapshot bench-compare smoke-sweepd

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/sweepd/ ./internal/runner/ ./internal/telemetry/ ./internal/telemetry/flight/

# Print the size metric ROADMAP tracks: lines of non-test Go outside
# bench/, blank and //-comment lines excluded. Only tracked files count,
# so build output such as .bench_build/ never does.
loc:
	@git ls-files -- '*.go' ':(exclude)*_test.go' ':(exclude)bench/' | xargs cat | awk '!/^[ \t]*$$/ && !/^[ \t]*\/\//' | wc -l

# Append a benchmark snapshot to the checked-in history
# (BENCH_sweep.json): the parallel sweep engine and the controller-tick
# hot path. Run on an idle machine; each snapshot records its
# environment and timestamp alongside the numbers.
bench-snapshot:
	$(GO) run ./scripts/benchsnap -out BENCH_sweep.json

# Diff the last two snapshots in the history and fail on any >20% ns/op
# regression. Meaningful after two `make bench-snapshot` runs on the
# same machine.
bench-compare:
	$(GO) run ./scripts/benchsnap -out BENCH_sweep.json -compare

# End-to-end service smoke: build padcsweepd, wait for /readyz, submit a
# campaign over HTTP, SIGKILL the server mid-run, resume, and verify the
# artifact is byte-identical to the in-process `padcsim -sweep` run.
smoke-sweepd:
	./scripts/smoke_sweepd.sh
