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

.PHONY: check fmt vet lint build inline test test-race race bench-go bench-test bench-pins fuzz-smoke smoke

check: fmt vet lint build inline test-race bench-test bench-pins smoke

# Determinism lint: wall clocks, global RNG, unordered map iteration,
# core concurrency, locks outside internal/fleet, seedless constructors
# and named RNG streams. Zero diagnostics is the only passing state;
# exemptions require a //taichi:allow directive.
lint:
	$(GO) run ./cmd/taichilint ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# Inlining and escape gate on the hot paths: every layer calls
# (*Tracer).Emit, the packet path asks (*Tracer).Records before it loops
# over a train's packets to record them, and the lend/reclaim cycle asks
# (*Scheduler).hasWork, which asks (*Kernel).HasRunnableFor, which asks
# (*Thread).AllowedOn, of every vCPU and runnable thread it scans. Every
# VM exit stops a (*sim.Timer) and every idle-poll arm asks whether one is
# Armed. Every draw from a named stream runs (*source).Uint64, which
# math/rand's own source inlines too. A call the compiler stops inlining
# costs several percent of wall time. The packet path moves packets by
# value: (*Pipeline).Inject, (*Pipeline).InjectTrain and
# (*dataplane.Core).Deliver copy the packet they are handed, so their
# packet parameter must not escape (the compiler may still report its
# content, the Done callback, as leaking).
# If it did, every caller's &accel.Packet{...} would move to the heap, one
# allocation per packet or train. The compiler replays its -m report from
# the build cache, so this is cheap.
inline:
	@out=$$($(GO) build -gcflags=-m ./internal/sim ./internal/trace ./internal/kernel ./internal/core ./internal/accel ./internal/dataplane 2>&1); \
	for fn in '(*Timer).Stop' '(*Timer).Armed' '(*source).Uint64' '(*Tracer).Emit' '(*Tracer).Records' '(*Thread).AllowedOn' '(*Kernel).HasRunnableFor' '(*Scheduler).hasWork'; do \
		re=$$(printf '%s' "$$fn" | sed 's/[(*).]/\\&/g'); \
		printf '%s\n' "$$out" | grep -qE "can inline $$re( |$$)" || \
			{ echo "$$fn is no longer inlinable"; exit 1; }; \
	done; \
	for fn in 'internal/accel/accel.go:func (pl *Pipeline) Inject(p *Packet)' 'internal/accel/accel.go:func (pl *Pipeline) InjectTrain(p *Packet, n int)' 'internal/dataplane/dataplane.go:func (c *Core) Deliver(p *accel.Packet, n int)'; do \
		file=$${fn%%:*}; line=$$(grep -nF "$${fn#*:}" $$file | cut -d: -f1); \
		printf '%s\n' "$$out" | grep -qE "^$$file:$$line:[0-9]+: (p does not escape|leaking param content: p)$$" || \
			{ echo "$$file:$$line: the packet parameter escapes"; exit 1; }; \
	done

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

# End-to-end audit gate: each run must finish with zero audit violations
# (taichi-sim exits non-zero otherwise). The faulted, recovery-armed crr
# and vmstartup runs cover the invariant auditor (the vmstartup run is
# the one that reaches the node-local dead-letter requeue path), the
# admission-gated vmstartup run covers overload control, and the placed
# fleets under the pressure policy cover cluster placement, fault-free
# and with every member faulted and the placer re-placing dead-lettered
# startups. The combined vmstartup run arms retries, overload control,
# recovery and faults at once, so every timer-driven loop the benchmark
# reaches (arrivals, the admission drain and shed sweep, the overload
# sampler, the static-mode exit, the breaker and the injector's loops)
# runs together under the auditor. The acceptance tests behind these
# subsystems (auditor, recovery, overload, placement) run in test-race
# above. Part of `make check` so a change that breaks a runtime invariant (double-lend, lost
# request, illegal mode transition) fails pre-commit even when no
# throughput number moves.
smoke:
	$(GO) run ./cmd/taichi-sim -mode taichi -workload crr -dur 200ms -faults default -recover -audit > /dev/null
	$(GO) run ./cmd/taichi-sim -mode taichi -workload vmstartup -retry -recover -faults default -dur 2s -audit > /dev/null
	$(GO) run ./cmd/taichi-sim -mode taichi -workload vmstartup -retry -overload -dur 2s -audit > /dev/null
	$(GO) run ./cmd/taichi-sim -mode taichi -workload vmstartup -retry -overload -recover -faults default -dur 2s -audit > /dev/null
	$(GO) run ./cmd/taichi-sim -nodes 4 -place pressure -util 0.3 -audit > /dev/null
	$(GO) run ./cmd/taichi-sim -nodes 4 -place pressure -util 0.3 -faults default -recover -audit > /dev/null

# One go-test benchmark per paper artifact plus the fleet speedup pair.
bench-go:
	$(GO) test -bench=. -benchmem

# Fuzz gate: run each differential fuzzer against its reference model
# for FUZZTIME — the event engine against the container/heap engine, the
# span deriver against the kind-by-kind deriver, the Chrome writer
# against the fmt/json.Marshal exporter, the chunked tracer against the
# flat []Event tracer, the stream source against math/rand's. `go test`
# replays only their seed corpora; this searches beyond them. A failing input is written
# under the package's testdata/fuzz/ and fails `go test` from then on.
# Go minimizes each new interesting input for up to -fuzzminimizetime
# (60 s by default), during which it executes nothing new; with the
# default, one minimization eats the whole budget.
FUZZTIME ?= 10s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzEngine$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzStreamSource$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzDerive$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzChrome$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzTracer$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/trace
