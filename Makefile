# Tier-1 verification: build, vet, test, race-test. All four must pass.
# Tests run shuffled so inter-test ordering dependencies cannot hide.
# fmtcheck fails if gofmt would change any file.
# fuzzsmoke gives each committed fuzz target a 10-second budget (among
# them FuzzWireDecode, which holds the /v1/batch codec to encoding/json
# on arbitrary bytes, FuzzHandleBatch, which holds the handler to
# "2xx or 4xx, and a 4xx admits nothing", and FuzzOptCost, which holds
# the OPT solver to brute force and to its own traceback, and the grid
# pass to the solver: Plan.Costs under two models ≡ two Plan.Cost calls,
# bit for bit),
# experiments-check reruns every experiment and diffs the output against
# the committed experiments_output.txt (the run is deterministic, so any
# difference is a changed figure), serve-smoke boots the service daemon
# under real load and asserts a clean zero-loss drain, trace-smoke
# checks end-to-end request tracing
# (schema-valid spans, exact cost reconciliation, byte-identical
# deterministic traces across shard counts under message faults),
# crash-smoke SIGKILLs the
# daemon mid-load, restarts it with the same flags on the same address,
# and asserts the journal-recovered accounting is byte-identical to an
# uninterrupted same-seed run and that journalcheck reconciles each
# run's journal to the other's stats (a dead disk and each transient
# disk fault at every journal op, and supervised panic recovery, are
# checked in-process by go test: TestCrashAndFaultAtEveryJournalOp),
# chaos-check runs the invariant-checked fault-injection pass over all
# three executed engines and diffs its counts against the committed
# golden (they are a pure function of the seed, so any changed digit is a
# changed protocol),
# syncvet flags journal Sync/Close calls whose error is silently
# dropped (go vet does not: an expression statement is legal Go),
# benchvet fails if a _test.go in the repository root declares a
# Benchmark (bench/ is the only benchmark; paper claims are gated by
# named tests and experiments-check),
# seqvet fails if the executed protocols, the feed or the multi-object
# directory regrow a goroutine, a channel, a condition variable, a
# wall-clock wait or a sync/atomic import
# (one owner runs them in one goroutine, a driver call is a method call;
# their counts are a function of their inputs),
# depsvet fails if objallocd or journalcheck links the laboratory again
# (the offline solver, sweeps and generators, or the executed clusters and
# their network simulator), crossvet fails
# if the OPT kernels' assembly uses anything wider than SSE2 (VEX, POPCNT,
# LZCNT/TZCNT, BMI), runs the OPT solver and the sweeps on the pure-Go
# relaxation kernels (GOARCH=386, which runs natively on an amd64 host)
# and vets the whole tree for arm64, so the platforms without
# kernels_amd64.s keep building and keep every figure, and
# staticcheck runs when the tool is installed (it is skipped gracefully
# otherwise — the build must not depend on network access).
# Outside verify: bench (the repository's benchmark), allocs (bytes,
# mallocs and GC cycles of a figure-1 sweep and of one grid pass — a
# measuring aid), profile, loc, chaos, obscheck.
.PHONY: verify build fmtcheck vet test race bench allocs obscheck fuzzsmoke experiments-check chaos-check serve-smoke trace-smoke crash-smoke syncvet benchvet seqvet depsvet crossvet staticcheck loc chaos profile

verify: build fmtcheck vet test race fuzzsmoke experiments-check chaos-check serve-smoke trace-smoke crash-smoke syncvet benchvet seqvet depsvet crossvet staticcheck

build:
	go build ./...

fmtcheck:
	@bad=$$(gofmt -l .); \
	if [ -n "$$bad" ]; then \
		echo "fmtcheck: gofmt would change:"; \
		echo "$$bad"; \
		exit 1; \
	fi

vet:
	go vet ./...

test:
	go test -shuffle=on ./...

race:
	go test -shuffle=on -race ./...

# bench runs the repository's benchmark (bench/README.md): the four
# workloads BENCHMARK.json declares, tracing off. It is the only source
# of performance numbers; `go run ./bench -trace 1` adds the layer ladder.
bench:
	go run ./bench

# allocs prints what the offline engine asks of the allocator: bytes and
# mallocs per bench-shaped sweep (the 6×6 figure-1 grid, eight battery seeds
# in rotation) with GC cycles per 1 000 sweeps, serial and at the default
# parallelism; the lower bound's share of one such sweep (BenchmarkBound:
# in SA's lane and DA's, opt.BoundOf over the battery from the measured
# counts, the signatures built on first ask, and the lane's lead and
# round-2 test at the 21 cells);
# and the same per opt.Plan.Costs call and per model of the
# one-model DP, over the shapes BenchmarkCosts lists. A serial sweep reads
# ~57 700 B in 123 mallocs: the battery's build ~23 000 B in 25 of them,
# the bound 10 680 B in 9 (2-core Xeon). The counts repeat run to run; the ns/op beside them are for orientation only — speed
# claims come from `make bench`. TestSweepAllocationBudget and
# TestPricingAllocations gate the counts in `make test`.
allocs:
	go test -run '^$$' -bench 'BenchmarkSweep|BenchmarkBound' -benchtime 200x -benchmem ./internal/competitive
	go test -run '^$$' -bench BenchmarkCosts -benchtime 200x -benchmem ./internal/opt

# obscheck is the observability slice of vet and race, for local use
# after touching internal/obs; verify runs both over ./... already.
obscheck:
	go vet ./internal/obs
	go test -race -run 'TestSweepObsDeterminism|TestSearchObsDeterminism' ./internal/competitive
	go test -race ./internal/obs

fuzzsmoke:
	go test -run none -fuzz FuzzConfigNormalize -fuzztime 10s ./internal/quorum
	go test -run none -fuzz FuzzParseFaults -fuzztime 10s ./internal/chaos
	go test -run none -fuzz FuzzParseDiskFaults -fuzztime 10s ./internal/chaos
	go test -run none -fuzz FuzzParseAdaptiveSpec -fuzztime 10s ./internal/adaptive
	go test -run none -fuzz FuzzKVSpec -fuzztime 10s ./internal/kvspec
	go test -run none -fuzz FuzzReplayJournal -fuzztime 10s ./internal/server
	go test -run none -fuzz FuzzWireDecode -fuzztime 10s ./internal/server
	go test -run none -fuzz FuzzHandleBatch -fuzztime 10s ./internal/server
	go test -run none -fuzz FuzzOptCost -fuzztime 10s ./internal/opt

experiments-check:
	go run ./cmd/experiments | diff - experiments_output.txt

serve-smoke:
	sh scripts/serve_smoke.sh

trace-smoke:
	sh scripts/trace_smoke.sh

crash-smoke:
	sh scripts/crash_smoke.sh

# A bare `x.Sync()` / `x.Close()` statement in the journal layer drops
# a durability error on the floor; acked-implies-durable dies exactly
# there, and go vet accepts it (an expression statement is legal Go).
# Handle the error or mark an audited discard with `_ =`. Test files
# are exempt (no durability guarantees); nothing else is.
syncvet:
	@files=$$(ls internal/server/*.go | grep -v '_test\.go$$'); \
	bad=$$(grep -n -E '^[[:space:]]*[a-zA-Z_][a-zA-Z0-9_.]*\.(Sync|Close)\(\)[[:space:]]*$$' $$files || true); \
	if [ -n "$$bad" ]; then \
		echo "syncvet: unchecked Sync/Close in internal/server (handle the error or mark the discard with _ =):"; \
		echo "$$bad"; \
		exit 1; \
	else \
		echo "syncvet: internal/server Sync/Close errors all handled"; \
	fi

# The root package had a second benchmark system once (31 Benchmark*
# that nothing ran or recorded); this keeps it from regrowing unnoticed.
benchvet:
	@bad=$$(grep -n -E '^func Benchmark' *_test.go || true); \
	if [ -n "$$bad" ]; then \
		echo "benchvet: Benchmark in the repository root (perf numbers come from bench/, paper claims from named tests):"; \
		echo "$$bad"; \
		exit 1; \
	else \
		echo "benchvet: no Benchmark in the repository root"; \
	fi

# The executed protocols run in the caller's goroutine on netsim.Runtime's
# run-to-quiescence loop, which is what makes every count they print a
# function of the seed. A `go` statement in their non-test code hands the
# delivery order back to the scheduler; a channel, a condition variable or
# a wall-clock wait is the machinery that came with it — with one goroutine
# there is nobody to hand a value to or to wake, so a driver call is a
# method call and a mailbox a plain queue (comments are held to the channel
# rule too: write "chan" or an arrow there and it fails). A cluster has one
# owner, as a bufio.Writer does, so a sync or sync/atomic import is a lock
# that lets a second caller in, and whichever caller wins it decides which
# operation starts first: concurrent reads are a PerformAll burst instead.
# internal/feed wraps a cluster and is held to the same rules, and so is
# internal/multiobject's directory, which the server's shard loop owns
# (its ExecutedDB lives in a test file and is not covered), and so is
# internal/ddmin, the shrink loop chaos and competitive share.
# chaos.Search's parallelism is the engine pool over whole scenarios, each
# of which runs on its own cluster.
seqvet:
	@all=$$(ls internal/netsim/*.go internal/sim/*.go internal/quorum/*.go internal/ha/*.go internal/chaos/*.go internal/ddmin/*.go internal/feed/*.go internal/multiobject/*.go | grep -v '_test\.go$$'); \
	bad=$$(grep -n -E '^[[:space:]]*go[[:space:]]+[a-zA-Z_(]' $$all; \
		grep -n -E '(^|[^a-zA-Z_])chan[[:space:]]|<-|sync\.NewCond|time\.After|time\.Sleep' $$all; \
		grep -n -E '"sync(/atomic)?"' $$all; true); \
	if [ -n "$$bad" ]; then \
		echo "seqvet: goroutine, channel, condition variable, wall-clock wait or sync/atomic import in the executed protocols, feed or multiobject (one owner runs them in one goroutine):"; \
		echo "$$bad"; \
		exit 1; \
	else \
		echo "seqvet: executed protocols, ddmin, feed and the multi-object directory start no goroutine, pass no channel, wait on no clock and take no lock"; \
	fi

# objallocd serves the controller and the two protocols; it does not run
# the laboratory. The offline side (competitive, opt, engine, workload,
# adversary) came in once through internal/adaptive, for two pure functions
# of (cc, cd) and a harness only tests call; the executed clusters (sim,
# quorum, ha, chaos) and their network simulator (netsim, with storage
# behind it) run under cmd/chaos and domsim — the server draws its loss
# from its own per-object streams. journalcheck replays what objallocd
# wrote under the same model flags, so the same line holds for it. An
# import that brings any of them back belongs on the other side of that
# line.
depsvet:
	@for cmd in objallocd journalcheck; do \
		deps=$$(go list -deps ./cmd/$$cmd) || exit 1; \
		deps=$$(echo "$$deps" | grep '^objalloc/internal/'); \
		bad=$$(echo "$$deps" | grep -E '^objalloc/internal/(competitive|opt|engine|workload|adversary|sim|quorum|ha|chaos|netsim|storage)$$' || true); \
		if [ -n "$$bad" ]; then \
			echo "depsvet: cmd/$$cmd links packages the service does not run (go list -deps ./cmd/$$cmd):"; \
			echo "$$bad"; \
			exit 1; \
		fi; \
		echo "depsvet: cmd/$$cmd links $$(echo "$$deps" | wc -l) internal packages, none of the laboratory"; \
	done

# The grid pass's relaxation kernels are SSE2 assembly on amd64 and their
# Go reference everywhere else; go vet's asmdecl checks the assembly's
# frames against its declarations on amd64 (vet), this checks the other
# side. It also holds the assembly to the GOAMD64=v1 baseline, SSE2 and
# nothing wider, since nothing checks the CPU: it fails on a VEX-encoded
# (V…) instruction, POPCNT, LZCNT, TZCNT or a BMI1/BMI2 instruction.
crossvet:
	@bad=$$(grep -n -E '^[[:space:]]*([A-Za-z_][A-Za-z0-9_]*:[[:space:]]*)?((POPCNT|LZCNT|TZCNT|ANDN|BLSI|BLSMSK|BLSR|BZHI|SHLX|SHRX|SARX|RORX|MULX|PDEP|PEXT)[WLQ]?|V[A-Z0-9]+)([[:space:]]|$$)' internal/opt/*.s || true); \
	if [ -n "$$bad" ]; then \
		echo "crossvet: instruction beyond SSE2 and the amd64 baseline in internal/opt assembly:"; \
		echo "$$bad"; \
		exit 1; \
	else \
		echo "crossvet: internal/opt assembly is SSE2 and baseline amd64 only"; \
	fi
	GOARCH=386 go test ./internal/opt ./internal/competitive
	GOARCH=arm64 go vet ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# loc prints lines of Go per package, non-test and test (wc -l): the
# table ROADMAP aim 2 asks every PR to report in CHANGES.md.
loc:
	@for d in $$(go list -f '{{.Dir}}' ./...); do \
		p=$${d#$$PWD}; p=$${p#/}; \
		n=$$(ls $$d/*.go | grep -v '_test\.go$$' | xargs cat 2>/dev/null | wc -l); \
		t=$$(ls $$d/*_test.go 2>/dev/null | xargs cat 2>/dev/null | wc -l); \
		printf '%-28s %6d %6d\n' "$${p:-.}" $$n $$t; \
	done | awk '{print; n+=$$2; t+=$$3} END {printf "%-28s %6d %6d\n", "total", n, t}'

# chaos runs an invariant-checked fault-injection pass over all three
# protocol engines: deterministic loss/dup/delay plus churn where the
# engine has a failure story. Any invariant violation fails the target.
chaos:
	go run ./cmd/chaos -engine da -n 6 -t 3 -steps 2000 -seed 1
	go run ./cmd/chaos -engine quorum -n 6 -t 3 -steps 2000 -seed 1 -churn 0.02
	go run ./cmd/chaos -engine ha -n 6 -t 3 -steps 2000 -seed 1 -churn 0.02

# chaos-check is the Type-1 gate on the executed protocols: message, I/O
# and retransmission counts of `make chaos` are a pure function of the
# seed, so one run suffices and any difference from the golden is a bug
# (or a deliberate protocol change, which regenerates the golden with
# `make -s chaos > internal/chaos/testdata/make_chaos.golden`).
chaos-check:
	@$(MAKE) -s chaos | diff - internal/chaos/testdata/make_chaos.golden
	@echo "chaos-check: counts match internal/chaos/testdata/make_chaos.golden"

# profile runs a figure-1 sweep under CPU profiling and leaves the profile
# next to the metrics stream; inspect with `go tool pprof`. The grid is
# 200×200 (20 k admissible cells, under a second) and the map goes to
# /dev/null: the 6×6 grid this target used to run finishes in 2 ms, between
# two samples of the profiler. Since the sweep's lower bound sees reads
# (the interval relaxation, opt.Bound.Price) it prices little beyond each
# cell's two incumbents, and writing the metrics stream
# (competitive.emitSweep through obs.(*JSONLSink).Emit) is the largest
# share, ~39 % of the samples (six runs merged, 2-core Xeon); the lanes'
# tasks, competitive.(*lane).price, are ~30 %: the grid pass of
# internal/opt, opt.(*Plan).costsPass, ~14 % (its kernels opt.readRows 7 %,
# opt.foldRows 3 %, flat) and the bound's bookkeeping ~10 % (each lane's
# lead search, competitive.(*pairBounds).lead, ~6 % with opt.(*Bound).Price
# ~5 %; the round-2 test ~4 %); RenderGrid is ~13 %. The one-model DP
# (opt.(*Plan).run, minTransform) runs only for Solve's traceback, so it
# does not appear here. On the small bench-shaped sweep (`go test -bench
# 'BenchmarkSweep/parallelism=1' -cpuprofile`) costsPass is ~26 %,
# competitive.(*lane).measure ~23 % (cost.StepCounts ~4 %, model.Set.Add
# ~3 %, model.CheckStep ~2 %), the battery's build, competitive.(*slots).fill,
# ~16 % (math/rand seeding ~5 %), the bound's bookkeeping ~12 % (the lead
# search ~10 %, the signatures ~4 % of it) and the runtime's futex (the
# engine pool parking) ~2 %. At the default parallelism the build is task 0
# of the sweep's run and DA's measuring streams behind it. `make allocs`
# counts what this profile can only sample.
profile:
	go run ./cmd/figure1 -steps 200 -cpuprofile figure1.cpu.pprof -metrics figure1.metrics.jsonl -progress > /dev/null
	@echo "wrote figure1.cpu.pprof and figure1.metrics.jsonl"
	@echo "inspect with: go tool pprof figure1.cpu.pprof"
