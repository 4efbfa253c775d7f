#!/usr/bin/env sh
# Pre-merge gate for this repository. Run from anywhere; it operates on
# the module root. Every step must pass before a change merges. Approximate
# lane runtimes (4-core container, warm build cache) are noted so a stall
# is recognizable:
#
#   1. gofmt       — formatting is canonical, no exceptions        (~1s)
#   2. go build    — the whole module compiles                     (~1s warm)
#   3. go vet      — stdlib static checks, plus an explicit
#                    -atomic -copylocks run: sync/atomic misuse and
#                    copied locks are the exact bug classes the
#                    concurrency passes build on                   (~5s)
#   4. tmlint      — the TM programming-model contracts plus the
#                    concurrency contracts of the lock-free hot
#                    path (atomicmix/seqlock/spinpark); prints a
#                    pass/finding/suppression summary line for
#                    EXPERIMENTS.md coverage tracking              (~5s)
#   5. hotalloc    — the //tm:hotpath zero-allocation gate: replays
#                    go build -gcflags=-m escape diagnostics over
#                    the static call graph of the annotated
#                    validate/commit/publish fast path; any new
#                    heap allocation there fails the merge         (~8s)
#   6. chaos lane  — go test -race -run Chaos ./internal/fault/... : the
#                    fault-injection scenarios (delay/drop/duplicate/
#                    reorder/stall/crash-restart) over their fixed seed
#                    matrix, repeated to shake out interleavings; asserts
#                    the committed history stays serializable across
#                    degrade/recover cycles                        (~40s)
#   7. audit lane  — go test -race over the lifecycle/auditor surface: a
#                    short chaos soak (cancellations, injected panics,
#                    watchdog kills) whose committed history the runtime
#                    serializability auditor must certify acyclic, gated
#                    by the auditor's self-test (a seeded wrong verdict
#                    must be flagged exactly once)                 (~30s)
#   8. recovery lane — go test -race over the durability surface: the
#                    crash/recovery chaos soak (repeated crash images off
#                    a fault-injecting disk, zero lost committed writes),
#                    the WAL torn-tail/corruption fuzz sweeps, and the
#                    recover-bench acceptance smoke                (~30s)
#   9. shard lane  — go test -race over the sharded validation plane:
#                    cross-shard atomicity stress (overlapping write
#                    sets spanning two engines must never both commit),
#                    the mixed single/cross soak with per-shard auditors
#                    plus merged-stream certification, sharded recovery
#                    with torn-cross-record reconciliation, and a short
#                    `rococobench -exp shard` smoke                (~30s)
#  10. serve lane  — the TM-as-a-service overload smoke: the serve front
#                    end's race-detected unit surface (admission, AIMD,
#                    deadlines, degradation tiers, StallBurst chaos), then
#                    a bounded `rococobench -exp serve` sweep through the
#                    real driver — goodput must stay positive while
#                    shedding, with the accounting identity, conservation
#                    invariant, auditor and pool checks all certified (~15s)
#  11. hybrid lane — go test -race over the adaptive hybrid runtime: the
#                    mixed fast/slow path oracles (lost-update, cross-path
#                    write skew, auditor-certified histories), the
#                    fast-publication protocol unit tests, the chaos
#                    mass-fallback scenario, then a bounded
#                    `rococobench -exp hybrid` crossover smoke      (~20s)
#  12. oracle lane — the lost-update oracles (counter hammers, bank
#                    conservation, soaks, value-reconstructed history
#                    checks, torn-read probes, the hybrid mixed-path pair)
#                    ten times each under GOMAXPROCS=1 and GOMAXPROCS=2:
#                    serializability has to hold on two processors, and a
#                    protocol hole there is silent under -race      (~10s)
#  13. go test -race ./internal/...
#                  — the runtime and analyzer packages under the race
#                    detector; OCC code is concurrency code, so the race
#                    lane is not optional. Includes the combining
#                    validator's no-stranding hammer (internal/fpga
#                    TestCombine*: committers ≫ processors mixing Validate,
#                    Submit and RecordFast, pinned to GOMAXPROCS 1 and 2
#                    by the test itself)                           (~2min)
#  14. bench smoke — every benchmark compiles and survives one iteration
#                    (benchtime=1x), so perf lanes cannot silently rot;
#                    the non-race run also picks up the AllocsPerRun
#                    zero-allocation tests excluded from lane 13   (~30s)
#
# Performance regressions are not gated here: that is BENCHMARK.json +
# benchmark/, run by the driver against the parent commit. The script ends
# by printing the size of the code (non-test Go lines of the root module),
# so size sits next to the speed it buys.
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

echo "== go vet ./..."
go vet ./...

echo "== go vet -atomic -copylocks ./..."
go vet -atomic -copylocks ./...

echo "== tmlint ./..."
go run ./cmd/tmlint -summary ./...

echo "== hotalloc gate: tmlint -hotalloc ./..."
go run ./cmd/tmlint -summary -hotalloc ./...

echo "== chaos lane: go test -race -run Chaos -count=2 ./internal/fault/..."
go test -race -run Chaos -count=2 ./internal/fault/...

echo "== audit lane: go test -race -run 'ChaosAuditSoak|SelfTest|Lifecycle|Watchdog|RunCtx' ./internal/audit/... ./internal/fault/... ./internal/rococotm/... ./internal/tm/..."
go test -race -run 'ChaosAuditSoak|SelfTest|Lifecycle|Watchdog|RunCtx' \
    ./internal/audit/... ./internal/fault/... ./internal/rococotm/... ./internal/tm/...

echo "== recovery lane: crash/recovery chaos + WAL fuzz + recover-bench smoke"
go test -race -run 'ChaosRecoverDurable' -count=1 ./internal/fault/...
go test -race -run 'TornTail|CorruptEveryByte|DiskWALRecovery|RecoverBenchSmoke' \
    ./internal/wal/... ./internal/fault/... ./internal/bench/...

echo "== shard lane: cross-shard atomicity + merged certification + sharded recovery + bench smoke"
go test -race -run 'Sharded|RecoverSharded|FileRecover' -count=1 \
    ./internal/rococotm/... ./internal/audit/... ./internal/fault/...
go run ./cmd/rococobench -exp shard -dur 50ms >/dev/null

echo "== serve lane: overload smoke — goodput under shedding, accounting/auditor certification"
go test -race -run 'TestServe' -count=1 ./internal/serve/...
go test -count=1 ./cmd/rococobench/

echo "== hybrid lane: mixed-path oracles + fast-publication protocol + crossover smoke"
go test -race -run 'TestHybrid|PublishFast|LineTable' -count=1 \
    ./internal/hybrid/... ./internal/rococotm/... ./internal/mem/...
go run ./cmd/rococobench -exp hybrid -dur 40ms >/dev/null

echo "== oracle lane: lost-update oracles x GOMAXPROCS {1,2} x -count=10"
for procs in 1 2; do
    GOMAXPROCS=$procs go test -count=10 \
        -run 'TestCounterHammer|TestBankInvariant|TestSoak|TestHistorySerializable|TestPipelinedWritebackNoTornReads|TestHybridLostUpdate|TestHybridHistorySerializable' \
        ./internal/rococotm/... ./internal/hybrid/...
done

echo "== go test -race ./internal/..."
go test -race ./internal/...

echo "== bench smoke: go test -run=NONE -bench=. -benchtime=1x ./internal/..."
go test -run='ZeroAllocs' -bench=. -benchtime=1x ./internal/...

echo "== all checks passed"

# Non-test Go lines of the root module (benchmark/ is its own module).
loc() {
    find "$1" -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
        ! -path '*/testdata/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
}
echo "== size: non-test Go lines: root module $(loc .), internal/rococotm $(loc internal/rococotm), internal/fpga $(loc internal/fpga)"
