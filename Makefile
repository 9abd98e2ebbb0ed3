GO ?= go

.PHONY: build test check lint vet vet-lostcancel race bench bench-check keys-full fuzz-smoke store-test crash-test cluster-test loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

lint:
	$(GO) run ./cmd/athena-lint ./...

vet:
	$(GO) vet ./...

# lostcancel pinned explicitly, independent of the default vet set: a
# dropped context.CancelFunc is a goroutine leak athena-lint's goleak
# pass cannot see through function values.
vet-lostcancel:
	$(GO) vet -lostcancel ./...

race:
	$(GO) test -race ./...

# The durable session tier's own suite (the crash points of the put
# protocol as a table, quarantine and healing, disk-cap eviction,
# concurrent puts, loads and removals of the same ids) under the race
# detector.
store-test:
	$(GO) test -race -count=1 ./internal/store/...

# Crash-recovery integration: build a real athena-serve, SIGKILL it with
# an upload torn mid-frame and batches in flight, restart on the same
# data dir, and assert acked sessions serve without re-upload. The CI
# persistence job runs exactly this.
crash-test:
	$(GO) build -o /tmp/athena-serve-crashtest ./cmd/athena-serve
	ATHENA_SERVE_BIN=/tmp/athena-serve-crashtest \
		$(GO) test -count=1 -run 'TestCrashRecoverySIGKILL|TestServeStoreRestart' -v ./internal/serve/

# Cluster gate: ring/router/control suites under the race detector,
# including the drain-under-load acceptance test (16 retrying clients
# through the router, owner drained mid-traffic, zero failures). The
# CI cluster-integration job runs exactly this plus a live-binary
# smoke.
cluster-test:
	$(GO) test -race -count=1 ./internal/cluster/ ./internal/serve/client/

# bench/ is a module of its own (athena/bench), which the root
# `go build ./...` and `go test ./...` do not reach: vet and test it,
# then run every workload of the benchmark for one or two operations, so
# an internal rename that breaks it fails here and not in a benchmark
# run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -smoke

# The FullParams evaluation keys by level, wire and held bytes, counted
# from their shapes: the key arithmetic of the paper's operating point,
# which no engine here can build, runs on every check.
keys-full:
	$(GO) run ./cmd/athena-keygen -preset full -dry-run

# Every native fuzz target of the arithmetic packages, of the eval-key
# bundle reader (FuzzReadEvalKeys in core), of the store (FuzzOpenDir:
# arbitrary names and contents in a data directory), of the serving
# protocol (FuzzFrames: the frame reader and every payload decoder) and
# of the cluster control plane (FuzzControlRPC: arbitrary JSON-RPC
# bodies), 15 s each (go fuzzes one target of one package per
# invocation): the checked-in corpora always run under `go test`; this
# looks a little past them on every push.
fuzz-smoke:
	@set -e; for pkg in ring rns bfv fbs lwe core store serve cluster; do \
		for f in $$($(GO) test -list '^Fuzz' ./internal/$$pkg | grep '^Fuzz'); do \
			echo "fuzz ./internal/$$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 15s ./internal/$$pkg; \
		done; \
	done

# check is the CI gate: compile, vet (plus the pinned lostcancel
# analyzer), FHE-aware static analysis, the full suite under the race
# detector (store suite included), the crash-recovery integration test
# against a real binary, the FullParams key sizes, then the benchmark
# module.
check: build vet vet-lostcancel lint race crash-test keys-full bench-check

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Non-test Go lines per package, as `wc -l` counts them (comments and
# blank lines included), and their sum: the number a code-diet PR's
# per-package delta in CHANGES.md is read from. bench/ is a module of
# its own, so `go list` does not reach it; it is listed by hand.
loc:
	@total=0; for d in $$($(GO) list -f '{{.Dir}}' ./...) $(CURDIR)/bench; do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		total=$$((total + n)); \
		printf '%7d  %s\n' $$n $${d#$(CURDIR)/}; \
	done; printf '%7d  total\n' $$total
