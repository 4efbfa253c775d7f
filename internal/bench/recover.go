package bench

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rococotm/internal/audit"
	"rococotm/internal/fault"
	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// The crash-recovery acceptance experiment (-exp recover): two phases.
//
// Phase 1 is the crash soak — seeded crash/restart cycles where each
// incarnation recovers from the previous one's crash image on a disk that
// tears tail writes, drops in-flight appends, flips bits in the unsynced
// region, and fails or stalls fsyncs. With SyncCommit on, every commit
// acknowledged before the crash point is in the oracle; recovery losing
// any of them, or applying one twice, fails the run. Every recovered
// commit stream is re-certified by the serializability auditor.
//
// Phase 2 is the snapshot soak — a final incarnation (recovered from the
// last crash image) running a bank-transfer workload where read-only
// transactions execute against pinned multi-version snapshots. The
// acceptance bar: zero snapshot aborts, zero torn sums, for the full
// soak duration.

// RecoverBenchConfig parameterizes the experiment. The zero value is the
// acceptance configuration: 100 crash cycles, 60s snapshot soak.
type RecoverBenchConfig struct {
	// Cycles is the crash/restart count; default 100.
	Cycles int
	// Writers is the writer thread count; default 4.
	Writers int
	// ConfirmPerCycle is how many durable commits each cycle must confirm
	// before crashing (so no cycle degenerates into a no-op); default 8.
	ConfirmPerCycle int
	// SoakDuration is the phase-2 mixed snapshot soak length; default 60s.
	SoakDuration time.Duration
	// Seed drives the disk schedule; default 1.
	Seed int64
	// Disk is the injected disk fault scenario; the zero value selects the
	// acceptance schedule (torn tails, drops, bit flips, sync faults).
	Disk fault.DiskSchedule
}

func (c *RecoverBenchConfig) fill() {
	if c.Cycles == 0 {
		c.Cycles = 100
	}
	if c.Writers == 0 {
		c.Writers = 4
	}
	if c.ConfirmPerCycle == 0 {
		c.ConfirmPerCycle = 8
	}
	if c.SoakDuration == 0 {
		c.SoakDuration = 60 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Disk == (fault.DiskSchedule{}) {
		c.Disk = fault.DiskSchedule{
			TornProb:      0.25,
			DropProb:      0.15,
			FlipProb:      0.01,
			SyncErrProb:   0.2,
			SyncStallProb: 0.1,
			SyncStallFor:  100 * time.Microsecond,
		}
	}
}

// RecoverReport is the outcome of one -exp recover run.
type RecoverReport struct {
	Cycles       int
	Writers      int
	SoakDuration time.Duration

	// Phase 1: crash soak.
	Confirmed  uint64 // commits acknowledged durable before a crash
	NotDurable uint64 // commits acknowledged without durability confirmation
	Lost       uint64 // confirmed commits missing after recovery (must be 0)
	OverApply  uint64 // recovered values beyond the attempt count (must be 0)
	Replayed   uint64 // WAL records replayed across all recoveries
	Disk       fault.DiskStats
	CertifyErr error // first auditor rejection of a recovered stream

	// Phase 2: snapshot soak.
	SoakCommits    uint64
	SnapshotRuns   uint64
	SnapshotAborts uint64 // read-only runs that errored or aborted (must be 0)
	TornSums       uint64 // snapshots whose balance sum broke the invariant (must be 0)

	LiveAfterClose int // descriptors live after the final Close (must be 0)
	GoroutineLeak  int // goroutines above baseline after the run (must be 0)
}

// Err returns the acceptance verdict: nil iff no committed write was lost,
// no recovered stream failed certification, no snapshot aborted or tore,
// and nothing leaked.
func (r *RecoverReport) Err() error {
	switch {
	case r.Lost > 0:
		return fmt.Errorf("bench: recover lost %d confirmed commits", r.Lost)
	case r.OverApply > 0:
		return fmt.Errorf("bench: recover over-applied %d commits", r.OverApply)
	case r.CertifyErr != nil:
		return fmt.Errorf("bench: recovered stream not serializable: %w", r.CertifyErr)
	case r.SnapshotAborts > 0:
		return fmt.Errorf("bench: %d snapshot transactions aborted", r.SnapshotAborts)
	case r.TornSums > 0:
		return fmt.Errorf("bench: %d torn snapshot sums", r.TornSums)
	case r.LiveAfterClose != 0:
		return fmt.Errorf("bench: %d descriptors live after Close", r.LiveAfterClose)
	case r.GoroutineLeak != 0:
		return fmt.Errorf("bench: %d goroutines leaked", r.GoroutineLeak)
	}
	return nil
}

// RunRecoverBench runs the crash-recovery acceptance experiment.
func RunRecoverBench(cfg RecoverBenchConfig) (*RecoverReport, error) {
	cfg.fill()
	rep := &RecoverReport{Cycles: cfg.Cycles, Writers: cfg.Writers, SoakDuration: cfg.SoakDuration}
	baseline := runtime.NumGoroutine()

	const accounts = 16
	writers := cfg.Writers
	var image []byte
	confirmed := make([]uint64, writers)
	attempts := make([]uint64, writers)

	// One incarnation: recover from image, verify the oracle, return the
	// recovered runtime plus layout. Shared by both phases.
	incarnate := func(cycle int) (*rococotm.TM, *fault.Disk, mem.Addr, mem.Addr, error) {
		disk := fault.NewDisk(image, func() fault.DiskSchedule {
			d := cfg.Disk
			d.Seed = cfg.Seed*1000 + int64(cycle)
			return d
		}())
		heap := mem.NewHeap(1 << 14)
		base := heap.MustAlloc(writers)
		acct := heap.MustAlloc(accounts)
		d, res, err := rococotm.RecoverDurable(disk, heap,
			wal.Options{FlushInterval: 200 * time.Microsecond},
			mvstore.Config{}, true)
		if err != nil {
			return nil, nil, 0, 0, fmt.Errorf("cycle %d: recover: %w", cycle, err)
		}
		rep.Replayed += uint64(len(res.Records))
		if rep.CertifyErr == nil {
			ars := make([]audit.Record, len(res.Records))
			for i, rec := range res.Records {
				ars[i] = audit.Record{Seq: rec.Seq, ValidTS: rec.ValidTS,
					Reads: rec.Reads, Writes: rec.WriteAddrs}
			}
			rep.CertifyErr = audit.Certify(ars, audit.Config{})
		}
		for th := 0; th < writers; th++ {
			got := uint64(heap.Load(base + mem.Addr(th)))
			if got < confirmed[th] {
				rep.Lost += confirmed[th] - got
			}
			if got > attempts[th] {
				rep.OverApply += got - attempts[th]
			}
			confirmed[th] = got
			attempts[th] = got
		}
		m := rococotm.New(heap, rococotm.Config{
			MaxThreads: writers + 2,
			Durable:    d,
			Logf:       func(string, ...any) {},
		})
		return m, disk, base, acct, nil
	}

	// Counters shared with worker goroutines stay atomic for their whole
	// life; the plain report fields are assigned only after the joins.
	var notDurable atomic.Uint64

	// Phase 1: crash/restart cycles.
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		m, disk, base, _, err := incarnate(cycle)
		if err != nil {
			return rep, err
		}
		var crashing, stop atomic.Bool
		var wg sync.WaitGroup
		for th := 0; th < writers; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				a := base + mem.Addr(th)
				for !stop.Load() {
					err := tm.Run(m, th, func(x tm.Txn) error {
						v, err := x.Read(a)
						if err != nil {
							return err
						}
						return x.Write(a, v+1)
					})
					if errors.Is(err, rococotm.ErrNotDurable) {
						atomic.AddUint64(&attempts[th], 1)
						notDurable.Add(1)
						continue
					}
					if err != nil {
						stop.Store(true)
						return
					}
					atomic.AddUint64(&attempts[th], 1)
					if !crashing.Load() {
						atomic.AddUint64(&confirmed[th], 1)
					}
				}
			}(th)
		}
		start := make([]uint64, writers)
		for th := range start {
			start[th] = atomic.LoadUint64(&confirmed[th])
		}
		for waitStart := time.Now(); ; {
			var delta uint64
			for th := range start {
				delta += atomic.LoadUint64(&confirmed[th]) - start[th]
			}
			if delta >= uint64(cfg.ConfirmPerCycle) || time.Since(waitStart) > 2*time.Second {
				break
			}
			time.Sleep(time.Millisecond)
		}
		crashing.Store(true)
		image = disk.CrashImage() // power loss
		stop.Store(true)
		wg.Wait()
		st := disk.Stats()
		rep.Disk.Appends += st.Appends
		rep.Disk.Syncs += st.Syncs
		rep.Disk.SyncErrors += st.SyncErrors
		rep.Disk.SyncStalls += st.SyncStalls
		rep.Disk.TornTails += st.TornTails
		rep.Disk.DroppedOps += st.DroppedOps
		rep.Disk.BitFlips += st.BitFlips
		m.Close()
	}
	for th := 0; th < writers; th++ {
		rep.Confirmed += confirmed[th]
	}
	rep.NotDurable = notDurable.Load()

	// Phase 2: mixed snapshot soak on a final recovered incarnation. The
	// accounts are fresh (never in the WAL), seeded directly in the heap
	// before the runtime starts; snapshot reads of untouched addresses
	// fall through to the heap, so the invariant holds from the start.
	m, _, _, acct, err := incarnate(cfg.Cycles)
	if err != nil {
		return rep, err
	}
	const initBalance = 1000
	for i := 0; i < accounts; i++ {
		m.Heap().Store(acct+mem.Addr(i), initBalance)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var soakCommits, snapshotRuns, snapshotAborts, tornSums atomic.Uint64
	for th := 0; th < writers; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := uint64(th)*2654435761 + 1
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				from := mem.Addr(rng % accounts)
				to := mem.Addr((rng >> 8) % accounts)
				if from == to {
					continue
				}
				//lint:ignore tmlint/aborterr soak workload: failed transfers are retried by the next loop pass
				if err := tm.Run(m, th, func(x tm.Txn) error {
					fv, err := x.Read(acct + from)
					if err != nil {
						return err
					}
					tv, err := x.Read(acct + to)
					if err != nil {
						return err
					}
					if fv == 0 {
						return nil
					}
					if err := x.Write(acct+from, fv-1); err != nil {
						return err
					}
					return x.Write(acct+to, tv+1)
				}); err == nil {
					soakCommits.Add(1)
				}
			}
		}(th)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			err := tm.RunReadOnly(m, writers, func(x tm.Txn) error {
				var sum mem.Word
				for i := 0; i < accounts; i++ {
					v, err := x.Read(acct + mem.Addr(i))
					if err != nil {
						return err
					}
					sum += v
				}
				if sum != initBalance*accounts {
					tornSums.Add(1)
				}
				return nil
			})
			if err != nil {
				snapshotAborts.Add(1)
				continue
			}
			snapshotRuns.Add(1)
		}
	}()
	time.Sleep(cfg.SoakDuration)
	stop.Store(true)
	wg.Wait()
	rep.SoakCommits = soakCommits.Load()
	rep.SnapshotRuns = snapshotRuns.Load()
	rep.SnapshotAborts = snapshotAborts.Load()
	rep.TornSums = tornSums.Load()
	rep.LiveAfterClose, _ = m.PoolCheck()
	m.Close()

	// Goroutine hygiene: let the WAL flushers drain.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		rep.GoroutineLeak = n - baseline
	}
	return rep, nil
}

// String renders the recover report.
func (r *RecoverReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Crash-recovery soak: %d cycles, %d writers, disk faults on every incarnation\n",
		r.Cycles, r.Writers)
	fmt.Fprintf(&sb, "  durability: %d confirmed commits, %d lost, %d over-applied, %d unconfirmed\n",
		r.Confirmed, r.Lost, r.OverApply, r.NotDurable)
	fmt.Fprintf(&sb, "  recovery:   %d WAL records replayed; certification %s\n",
		r.Replayed, verdict(r.CertifyErr == nil))
	fmt.Fprintf(&sb, "  disk:       %d appends, %d syncs, %d sync errors, %d stalls, %d torn tails, %d dropped, %d bit flips\n",
		r.Disk.Appends, r.Disk.Syncs, r.Disk.SyncErrors, r.Disk.SyncStalls,
		r.Disk.TornTails, r.Disk.DroppedOps, r.Disk.BitFlips)
	fmt.Fprintf(&sb, "Snapshot soak: %v mixed read/write\n", r.SoakDuration)
	fmt.Fprintf(&sb, "  traffic:    %d transfer commits, %d snapshot reads\n", r.SoakCommits, r.SnapshotRuns)
	fmt.Fprintf(&sb, "  aborts:     %d snapshot aborts, %d torn sums\n", r.SnapshotAborts, r.TornSums)
	fmt.Fprintf(&sb, "  hygiene:    %d live descriptors after Close, %d goroutines leaked\n",
		r.LiveAfterClose, r.GoroutineLeak)
	if err := r.Err(); err != nil {
		fmt.Fprintf(&sb, "  VERDICT: FAIL — %v\n", err)
	} else {
		fmt.Fprintf(&sb, "  VERDICT: pass — zero lost writes, zero snapshot aborts, zero leaks\n")
	}
	return sb.String()
}

func verdict(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}
