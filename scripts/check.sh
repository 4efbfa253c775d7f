#!/usr/bin/env sh
# Pre-merge gate for this repository. Run from anywhere; it operates on
# the module root. Every step must pass before a change merges. Approximate
# lane runtimes (4-core container, warm build cache) are noted so a stall
# is recognizable:
#
#   1. gofmt       — formatting is canonical, no exceptions        (~1s)
#   2. go build    — the whole module compiles, and so does the
#                    benchmark/ module (built and vetted on its own:
#                    the root build skips the nested module, and a
#                    root API change must not break the benchmark
#                    unnoticed)                                    (~3s warm)
#   3. go vet      — stdlib static checks, plus an explicit
#                    -atomic -copylocks run: sync/atomic misuse and
#                    copied locks (typed atomics included) are bug
#                    classes of the lock-free hot path             (~5s)
#   4. tmlint      — the TM programming-model contracts (aborterr,
#                    retrypure, deadtxn) plus the spin-wait contract
#                    of the lock-free hot path (spinpark); prints a
#                    pass/finding/suppression summary line for
#                    EXPERIMENTS.md coverage tracking              (~5s)
#   5. hotalloc    — the //tm:hotpath zero-allocation gate: replays
#                    go build -gcflags=-m escape diagnostics over
#                    the static call graph of the annotated
#                    validate/commit/publish fast path; any new
#                    heap allocation there fails the merge         (~8s)
#   6. recovery-chaos lane — go test -race -run Chaos ./internal/fault/... :
#                    TestChaosRecoverDurable, the disk-fault
#                    crash-recovery soak (torn tails, dropped appends,
#                    bit flips, failing and stalling fsyncs), plus the
#                    engine-crash scenarios on the trusting runtime
#                    (TestChaosCrashRestart, TestChaosRecoveryRoundTrip:
#                    Close + Restart under traffic; TestChaosAuditSoak:
#                    engine crashes with cancellations, panics and
#                    watchdog kills under the auditor), over fixed
#                    seed matrices, repeated to shake out
#                    interleavings; no acknowledged commit is lost or
#                    applied twice and every history certifies — the
#                    one lane with repetition under the race
#                    detector. The checks of the deleted -exp soak
#                    and -exp recover drivers run here: the soak's
#                    cancel/panic/stall schedule under the auditor is
#                    TestChaosAuditSoak, recover's crash-image cycles,
#                    durable oracle, certification, snapshot reader
#                    and PoolCheck are TestChaosRecoverDurable     (~10s)
#   7. oracle lane — the lost-update oracles (counter hammers, bank
#                    conservation, soaks, value-reconstructed history
#                    checks, torn-read probes, the hybrid mixed-path pair,
#                    read-only attempts' conservation scans against live
#                    writers, the ordered section feeding its sinks)
#                    and the liveness-word tests (the transition table,
#                    the doomer-vs-owner hammer, the watchdog and
#                    PoolCheck tests: a remote doom CAS racing the
#                    owner's end), the serve suite (requests run on
#                    their callers' goroutines, one tm thread each) and
#                    the multi-version store's lock-free snapshot reads
#                    against applies, folds and recycled records, and the
#                    durable runtime's oracles (commits land in the log,
#                    crash-recover-resume, concurrent durable commits
#                    recovered value for value, snapshot reads that never
#                    abort beside transfers),
#                    ten times each under GOMAXPROCS=1 and
#                    GOMAXPROCS=2: serializability has to hold on two
#                    processors, and a protocol hole there is silent
#                    under -race                                   (~20s)
#   8. go test -race -count=1 ./internal/...
#                  — every runtime and analyzer package under the race
#                    detector; OCC code is concurrency code, so the race
#                    lane is not optional. It is where the lifecycle/
#                    auditor soak, the crash-recovery chaos and WAL fuzz
#                    sweeps, the serve overload surface and the hybrid
#                    mixed-path oracles run (they used to be five -run lanes selecting
#                    subsets of this one), and includes the engine
#                    lock's hammer (internal/fpga TestValidateHammer:
#                    committers ≫ processors mixing Validate, Process,
#                    RecordFast, Stats and NextSeq, pinned to GOMAXPROCS
#                    1 and 2 by the test itself)                   (~2min)
#   9. driver smokes — go test ./cmd/...: the drivers' flag and
#                    exit-status tests through their run functions. Serving
#                    under overload is certified by TestServeOverloadSheds
#                    (accounting, conservation, auditor, pool) in lanes
#                    7 and 8                                       (~10s)
#  10. bench smoke — every benchmark compiles and survives one iteration
#                    (benchtime=1x), so perf lanes cannot silently rot;
#                    the non-race run also picks up the AllocsPerRun
#                    zero-allocation tests excluded from lane 8    (~30s)
#  11. fuzz lane  — go test -fuzz, new-input minimization capped at 1s
#                    so each bounded run keeps executing:
#                    FuzzWindowAgainstOracle for 15s, the ring-addressed
#                    ROCoCo window against BigWindow and an explicit-graph
#                    oracle at fuzzed W ∈ [1,64], through ring-slot reuse
#                    and ResetAt at any base; FuzzAddrSetAgainstMap for
#                    10s, the read/write-set type's insert, find, lazy
#                    sign, overlaps and reset (generation wrap included)
#                    against a map model and eager signatures     (~30s)
#
# Performance regressions are not gated here: that is BENCHMARK.json +
# benchmark/, run by the driver against the parent commit. The script ends
# by printing the size of the code (non-test Go lines of the root module,
# the runtime packages and the internal/lint analyzer beside them), and the
# exported field count of rococotm.Config (TestOptionCensus pins every
# config type), so size sits next to the speed it buys.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== benchmark module: go build ./... && go vet ./..."
(cd benchmark && go build -o /dev/null ./... && go vet ./...)

echo "== go vet ./..."
go vet ./...

echo "== go vet -atomic -copylocks ./..."
go vet -atomic -copylocks ./...

echo "== tmlint ./..."
go run ./cmd/tmlint -summary ./...

echo "== hotalloc gate: tmlint -hotalloc ./..."
go run ./cmd/tmlint -summary -hotalloc ./...

echo "== recovery-chaos lane: go test -race -run Chaos -count=2 ./internal/fault/..."
go test -race -run Chaos -count=2 ./internal/fault/...

echo "== oracle lane: lost-update oracles + read-only scans + liveness word + serve + durable + snapshot reads x GOMAXPROCS {1,2} x -count=10"
for procs in 1 2; do
    GOMAXPROCS=$procs go test -count=10 \
        -run 'TestCounterHammer|TestBankInvariant|TestSoak|TestHistorySerializable|TestPipelinedWritebackNoTornReads|TestReadOnlyScansConserve|TestOrderedSectionFeedsSinks|TestHybridLostUpdate|TestHybridHistorySerializable|TestLiveWord|Watchdog|PoolCheck' \
        ./internal/rococotm/... ./internal/hybrid/...
    GOMAXPROCS=$procs go test -count=10 -run 'TestServe' ./internal/serve/...
    GOMAXPROCS=$procs go test -count=10 -run 'TestDurable|TestSnapshotReadsNeverAbort' \
        ./internal/rococotm/...
    GOMAXPROCS=$procs go test -count=10 \
        -run 'TestSnapshotReads|TestConcurrentSnapshotReads|TestFold|TestPinnedSnapshot' \
        ./internal/mvstore/...
done

echo "== go test -race -count=1 ./internal/..."
go test -race -count=1 ./internal/...

echo "== driver smokes: go test ./cmd/..."
go test -count=1 ./cmd/...

echo "== bench smoke: go test -run=NONE -bench=. -benchtime=1x ./internal/..."
go test -run='ZeroAllocs' -bench=. -benchtime=1x ./internal/...

echo "== fuzz lane: FuzzWindowAgainstOracle 15s, FuzzAddrSetAgainstMap 10s"
go test -run NONE -fuzz FuzzWindowAgainstOracle -fuzztime 15s -fuzzminimizetime 1s ./internal/core/
go test -run NONE -fuzz FuzzAddrSetAgainstMap -fuzztime 10s -fuzzminimizetime 1s ./internal/rococotm/

echo "== all checks passed"

# Non-test Go lines of the root module (benchmark/ is its own module).
loc() {
    find "$1" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
        ! -path '*/testdata/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
}
# Exported fields of rococotm.Config: one-tab-indented capitalized names.
cfgfields=$(awk '/^type Config struct/ { body = 1; next } body && /^}/ { exit } body && /^\t[A-Z][A-Za-z0-9]* / { n++ } END { print n + 0 }' internal/rococotm/rococotm.go)
echo "== size: non-test Go lines: root module $(loc .), internal/rococotm $(loc internal/rococotm), internal/hybrid $(loc internal/hybrid), internal/fpga $(loc internal/fpga), internal/bench $(loc internal/bench), internal/lint $(loc internal/lint); rococotm.Config fields: $cfgfields"
