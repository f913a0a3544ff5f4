# Development gate for the Tai Chi reproduction.
#
# `make check` is the pre-commit bar: formatting, vet, the determinism
# lint suite, build, and the full test suite under the race detector.
# The race detector is load-bearing — fleet members and experiment
# harnesses run concurrently (internal/fleet worker pool), so a data
# race is a correctness bug, not a style issue. See README.md
# "Performance". The lint gate is equally load-bearing: every replay
# and byte-identity claim rests on the determinism contract that
# taichilint enforces mechanically (ARCHITECTURE.md §7).

GO ?= go

.PHONY: check fmt vet lint build inline test test-race race bench-go bench-test bench-pins chaos-smoke fuzz-smoke audit-smoke overload-smoke placement-smoke

check: fmt vet lint build inline test-race bench-test bench-pins audit-smoke overload-smoke placement-smoke

# Determinism lint: wall clocks, global RNG, unordered map iteration,
# core concurrency, and seedless constructors. Zero diagnostics is the
# only passing state; exemptions require a //taichi:allow directive.
lint:
	$(GO) run ./cmd/taichilint ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Inlining gate on the trace write path: every layer calls
# (*Tracer).Emit on its hot path, and an Emit the compiler does not
# inline costs the packet workloads several percent of wall time. The
# compiler replays its -m report from the build cache, so this is cheap.
inline:
	@$(GO) build -gcflags=-m ./internal/trace 2>&1 | grep -qE 'can inline \(\*Tracer\)\.Emit( |$$)' || \
		{ echo "(*Tracer).Emit is no longer inlinable"; exit 1; }

test:
	$(GO) test ./...

# The experiments package legitimately runs >10m under the race
# detector (full figure sweeps × chaos outcome drains), so the default
# go-test timeout is too tight.
test-race:
	$(GO) test -race -timeout 30m ./...

# The deep race gate: two runs with a shuffled test order. -count=2
# catches state leaked between runs (package-level caches, leaked
# goroutines still racing into the second run); -shuffle=on catches
# inter-test order dependencies that a fixed order hides. Too slow for
# the pre-commit `check` target — it backs the dedicated CI race job.
race:
	$(GO) test -race -count=2 -shuffle=on -timeout 60m ./...

# The benchmark module's own vet and tests (bench/ is a separate module,
# so `go vet ./...` and `go test ./...` above never reach it). Its tests
# include the dispatch-class layer map and the determinism lint over the
# whole tree (TestLintClean), and it compiles against the simulator's
# internal interfaces. About 15 s.
bench-test:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Replay gate on the simulator benchmark (bench/): three reps of every
# workload, each seed's simulation digest checked against the pins in
# bench/testdata/pins.json; the run exits 1 when any digest drifts. It
# is the only local check of the packet-overload (overload ladder) and
# trace-export (faults + recovery ladder) pins. About 50 s on a 2-vCPU
# host, build included.
bench-pins:
	bash bench/run.sh -seconds 0

# Invariant-auditor gate: faulted, recovery-armed runs must finish with
# zero audit violations (taichi-sim exits non-zero otherwise), and the
# auditor/recovery acceptance tests must pass. The vmstartup run is the
# one that reaches the node-local dead-letter requeue path. Part of `make check` so a
# scheduler change that breaks a runtime invariant — double-lend, lost
# request, illegal mode transition — fails pre-commit even when no
# throughput number moves.
audit-smoke:
	$(GO) run ./cmd/taichi-sim -mode taichi -workload crr -dur 200ms -faults default -recover -audit > /dev/null
	$(GO) run ./cmd/taichi-sim -mode taichi -workload vmstartup -retry -recover -faults default -dur 2s -audit > /dev/null
	$(GO) test -count=1 -run 'TestAuditorCertifiesPinnedScenarios|TestChaosRecoveryReconverges|TestRecoveryLadderFlapping' . ./internal/experiments ./internal/core

# Overload-control gate: an overloaded, admission-gated run must end
# with zero audit violations (taichi-sim exits non-zero otherwise), the
# overload acceptance sweep must hold — latency-critical goodput
# protected at 4x, batch absorbing the shedding, the brownout ladder
# de-escalating, byte-identical output across worker counts — and the
# audit replayer's request totals must agree with the report-side
# counters on every pinned scenario. Part of `make check` so an
# overload-control regression fails pre-commit.
overload-smoke:
	$(GO) run ./cmd/taichi-sim -mode taichi -workload vmstartup -retry -overload -dur 2s -audit > /dev/null
	$(GO) test -count=1 -run 'TestOverloadAcceptance|TestOverloadParallelDeterminism|TestAuditTotalsAgreeWithManagerCounters' .

# Cluster-placement gate: a placed fleet under the pressure policy must
# end with zero audit violations (taichi-sim exits non-zero otherwise),
# both fault-free and with every member faulted and recovery armed (the
# placer re-placing dead-lettered startups), the placement acceptance
# sweep must hold — pressure beating blind
# round-robin on p99 startup latency and hotspot dwell, migrations
# inside the per-scan budget, byte-identical output across worker
# counts — and a populated-but-disabled placement policy must stay
# invisible. Part of `make check` so a placer or signal regression
# fails pre-commit.
placement-smoke:
	$(GO) run ./cmd/taichi-sim -nodes 4 -place pressure -util 0.3 -audit > /dev/null
	$(GO) run ./cmd/taichi-sim -nodes 4 -place pressure -util 0.3 -faults default -recover -audit > /dev/null
	$(GO) test -count=1 -run 'TestPlacementAcceptance|TestPlacementParallelDeterminism|TestFacadeZeroPlacementIdentity' .

# One go-test benchmark per paper artifact plus the fleet speedup pair.
bench-go:
	$(GO) test -bench=. -benchmem

# Fuzz gate: run each differential fuzzer against its reference model
# for FUZZTIME — the event engine against the container/heap engine, the
# span deriver against the kind-by-kind deriver, the Chrome writer
# against the fmt/json.Marshal exporter, the chunked tracer against the
# flat []Event tracer. `go test` replays only their
# seed corpora; this searches beyond them. A failing input is written
# under the package's testdata/fuzz/ and fails `go test` from then on.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEngine$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzDerive$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzChrome$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzTracer$$' -fuzztime $(FUZZTIME) ./internal/trace

# Request-lifecycle acceptance gate: under the chaos fault sweep, every
# issued VM creation must reach a terminal state (zero lost requests)
# and the outcome tables must replay byte-identically across seeds and
# worker counts — all under the race detector.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaosSmokeRequestOutcomes|TestNoLostRequestsUnderCPCrash|TestBackwardCompatGolden' ./internal/experiments ./internal/cluster .
