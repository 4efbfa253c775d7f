package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rococotm/internal/core"
	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/rococotm"
	"rococotm/internal/serve"
	"rococotm/internal/sig"
	"rococotm/internal/stamp"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// Layer probes: plain timed loops over the public function of one layer,
// run once per invocation in their own process at GOMAXPROCS=1. Each probe
// is the median of probeReps repetitions of at least probeRep each.
const (
	probeReps = 5
	probeRep  = 60 * time.Millisecond
)

// sink defeats dead-code elimination of probe bodies.
var sink uint64

// timeLoop reports ns per call of step, which runs batch calls.
func timeLoop(batch int, rep time.Duration, step func()) float64 {
	reps := make([]float64, probeReps)
	for r := range reps {
		calls := 0
		start := time.Now()
		for time.Since(start) < rep {
			step()
			calls += batch
		}
		reps[r] = float64(time.Since(start)) / float64(calls)
	}
	sort.Float64s(reps)
	return reps[len(reps)/2]
}

// footprint fills addrs with distinct word addresses of a 1 MB region.
func footprint(rng *stamp.RNG, addrs []uint64) {
	for i := range addrs {
		addrs[i] = 1 + uint64(rng.Intn(1<<17))
	}
}

func probeProcess(reads, writes int, roundTrip bool) (float64, error) {
	eng, err := fpga.Start(fpga.Config{})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	rng := stamp.NewRNG(uint64(reads)<<8 | uint64(writes))
	r, w := make([]uint64, reads), make([]uint64, writes)
	next := uint64(eng.NextSeq())
	var bad error
	ns := timeLoop(64, probeRep, func() {
		for i := 0; i < 64; i++ {
			footprint(rng, r)
			footprint(rng, w)
			req := fpga.Request{ValidTS: next, ReadAddrs: r, WriteAddrs: w}
			var v fpga.Verdict
			if roundTrip {
				if v, err = eng.Validate(req); err != nil {
					bad = err
				}
			} else {
				v = eng.Process(req)
			}
			if v.OK {
				next = uint64(v.Seq) + 1
			} else {
				bad = fmt.Errorf("probe verdict: %s", v.Reason)
			}
		}
	})
	return ns, bad
}

func probeFileSync() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	path := filepath.Join(filepath.Dir(exe), fmt.Sprintf("probe-%d.wal", os.Getpid()))
	dev, err := wal.OpenFile(path)
	if err != nil {
		return 0, err
	}
	defer os.Remove(path)
	defer dev.Close()
	batch := make([]byte, 8<<10)
	var bad error
	ns := timeLoop(1, probeRep, func() {
		if err := dev.Append(batch); err != nil {
			bad = err
		}
		if err := dev.Sync(); err != nil {
			bad = err
		}
	})
	return ns / 1e3, bad
}

// runProbes returns ns per call of each probed function.
func runProbes() (map[string]float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	out := map[string]float64{}
	rng := stamp.NewRNG(1)

	heap := mem.NewHeap(1 << 18)
	addrs := make([]mem.Addr, 1024)
	for i := range addrs {
		addrs[i] = mem.Addr(1 + i*8191%(1<<17)) // distinct, spread over 1 MB
	}
	out["mem.heap_load_ns"] = timeLoop(len(addrs), probeRep, func() {
		var s mem.Word
		for _, a := range addrs {
			s += heap.Load(a)
		}
		sink += uint64(s)
	})

	hasher := sig.NewHasher(sig.Default512, 1)
	a, b := sig.New(sig.Default512), sig.New(sig.Default512)
	out["sig.insert_ns"] = timeLoop(len(addrs), probeRep, func() {
		a.Reset() // 1024 inserts would saturate 512 bits; the cost does not depend on that
		for _, ad := range addrs {
			a.Insert(hasher, uint64(ad))
		}
	})
	a.Reset()
	b.Reset()
	for i := 0; i < 8; i++ { // sub-signature sized sets, as the read path intersects them
		a.Insert(hasher, uint64(addrs[i]))
		b.Insert(hasher, uint64(addrs[512+i]))
	}
	out["sig.intersects_ns"] = timeLoop(1024, probeRep, func() {
		n := 0
		for i := 0; i < 1024; i++ {
			if a.Intersects(b) {
				n++
			}
		}
		sink += uint64(n)
	})

	win := core.NewWindow(core.DefaultW)
	out["core.window_validate_ns"] = timeLoop(1024, probeRep, func() {
		for i := 0; i < 1024; i++ {
			// A sparse backward edge set, as disjoint short transactions give.
			bk := uint64(1) << (rng.Next() & 63)
			if _, _, ok := win.Validate(0, bk); ok {
				win.Insert(0, bk)
			}
		}
	})

	var err error
	if out["fpga.process_ns.small"], err = probeProcess(2, 2, false); err != nil {
		return nil, err
	}
	if out["fpga.process_ns.large"], err = probeProcess(40, 4, false); err != nil {
		return nil, err
	}
	if out["fpga.roundtrip_ns"], err = probeProcess(2, 2, true); err != nil {
		return nil, err
	}
	out["fpga.handoff_ns"] = out["fpga.roundtrip_ns"] - out["fpga.process_ns.small"]

	// serve.Do with an empty body: admission, queue hand-off, retry loop and
	// an empty read-only commit, without any transactional work.
	rt := rococotm.New(mem.NewHeap(1<<10), rococotm.Config{MaxThreads: maxThreads})
	srv := serve.New(rt, serve.Config{Workers: 2})
	noop := func(tm.Txn) error { return nil }
	var bad error
	out["serve.noop_do_ns"] = timeLoop(64, probeRep, func() {
		for i := 0; i < 64; i++ {
			if o, err := srv.Do(serve.Request{Class: serve.Normal, Fn: noop}); o != serve.Committed {
				bad = fmt.Errorf("serve probe: %v: %v", o, err)
			}
		}
	})
	srv.Close()
	rt.Close()
	if bad != nil {
		return nil, bad
	}

	// wal.Log.Append of a 2r/2w record into a MemDevice. A fresh log per
	// repetition keeps the device from growing without bound.
	rec := wal.Record{Reads: []uint64{1, 2}, WriteAddrs: []uint64{1, 2}, WriteVals: []uint64{3, 4}}
	appendReps := make([]float64, probeReps)
	for r := range appendReps {
		log := wal.Open(wal.NewMemDevice(nil), 0, wal.Options{})
		const n = 200_000
		start := time.Now()
		for i := uint64(0); i < n; i++ {
			rec.Seq = i
			if err := log.Append(&rec); err != nil {
				bad = err
			}
		}
		appendReps[r] = float64(time.Since(start)) / n
		if err := log.Close(); err != nil {
			bad = err
		}
	}
	if bad != nil {
		return nil, bad
	}
	sort.Float64s(appendReps)
	out["wal.append_ns"] = appendReps[probeReps/2]

	// The disk the gated bank-full workload leaves out: one group-commit
	// flush (8 KB, about a millisecond of bank commits) written and fsynced
	// to a file beside the binary. On a shared host this number follows the
	// neighbours' disk traffic.
	if out["wal.file_sync_us"], err = probeFileSync(); err != nil {
		return nil, err
	}

	store, err := mvstore.New(heap, mvstore.Config{})
	if err != nil {
		return nil, err
	}
	seq := uint64(0)
	wa, wv := make([]mem.Addr, 2), []mem.Word{1, 2}
	out["mvstore.apply_ns"] = timeLoop(256, probeRep, func() {
		for i := 0; i < 256; i++ {
			at := rng.Next() & 1023
			wa[0], wa[1] = addrs[at], addrs[(at+1)&1023]
			store.ApplyUpdates(seq, wa, wv)
			seq++
		}
	})
	snap := store.RetrieveSnapshot()
	out["mvstore.snapshot_read_ns"] = timeLoop(len(addrs), probeRep, func() {
		var s mem.Word
		for _, ad := range addrs {
			s += snap.Read(ad)
		}
		sink += uint64(s)
	})
	store.ReleaseSnapshot(snap)
	return out, nil
}
