package rococotm

import (
	"cmp"
	"errors"
	"testing"
	"time"

	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// White-box tests of the front half of the commit: extend (agg.go), the claim
// (pipeline.go), and the one epilogue's accounting.

// The ref* functions are the extension decisions as the call sites wrote
// them out before extend existed (admit, Commit), kept as the reference
// extend's callers are compared against. abort is the reason the site
// aborted with, "" if it did not.

func refFold(x *txn, upto uint64) (tempAny, overlap, ok bool) {
	before := x.localTS
	x.tempSig.Reset()
	overlap, ok = x.extendFold(upto)
	return x.localTS > before, overlap, ok
}

func refRead(x *txn, idx []int, g1 uint64) (abort string) {
	tempAny, overlap, ok := refFold(x, g1)
	if !ok {
		return tm.ReasonWindow
	}
	if x.missAny || overlap {
		if tempAny {
			x.missSig.Union(x.tempSig)
			x.missAny = true
		}
		if x.missAny && x.missSig.QueryIdx(idx) {
			return tm.ReasonConflict
		}
	} else if tempAny {
		x.validTS = x.localTS
	}
	return ""
}

func refCommit(x *txn, g uint64) (abort string) {
	tempAny, overlap, ok := refFold(x, g)
	if !ok {
		return tm.ReasonWindow
	}
	if tempAny {
		if x.missAny || overlap {
			x.missSig.Union(x.tempSig)
			x.missAny = true
		} else {
			x.validTS = x.localTS
		}
	} else if !x.missAny {
		x.validTS = x.localTS
	}
	return ""
}

// TestExtendCallerPolicies drives one commit history through the two
// policies extend's callers apply — a read aborts only on a missed address,
// a commit never aborts on staleness — and checks validTS, localTS, missAny and the abort reason against what the
// hand-written copies produce from the same starting state. Its read-only
// arm runs the read policy in a BeginReadOnly attempt that reads every
// address twice, so its read set is a log with repeats; it must reach the
// same validTS, missAny, MissSet and read-set signature as the reference's
// distinct set.
func TestExtendCallerPolicies(t *testing.T) {
	const readers = 3 // addresses each transaction under test reads first
	histories := []struct {
		name    string
		slots   int
		miss    bool  // the transaction is already stale before the history
		commits []int // address index each later commit writes
	}{
		{name: "nothing committed"},
		{name: "disjoint commits", commits: []int{5, 6, 7, 5, 6}},
		{name: "overlapping commit", commits: []int{5, 1, 6}},
		{name: "stale then disjoint", miss: true, commits: []int{5, 6}},
		{name: "ring lapped", slots: 4, commits: []int{5, 6, 7, 5, 6, 7}},
	}
	policies := []struct {
		name     string
		readOnly bool // thread 0 begins read-only and reads each address twice
		got      func(x *txn, a mem.Addr, idx []int, g uint64) error
		ref      func(x *txn, idx []int, g uint64) string
	}{
		{"read missed address", false,
			func(x *txn, a mem.Addr, _ []int, g uint64) error { return x.admit(&probe{a: uint64(a)}, g) },
			refRead},
		{"read-only read, repeats", true,
			func(x *txn, a mem.Addr, _ []int, g uint64) error {
				// readOnlyRead after its load.
				if err := x.reconcile(&probe{a: uint64(a)}, g); err != nil {
					return err
				}
				x.reads.add(uint64(a))
				return nil
			},
			refRead},
		{"commit", false,
			func(x *txn, _ mem.Addr, _ []int, g uint64) error {
				if !x.extend(g) {
					return x.abort(tm.CodeWindow)
				}
				return nil
			},
			func(x *txn, _ []int, g uint64) string { return refCommit(x, g) }},
	}
	for _, h := range histories {
		for _, p := range policies {
			t.Run(h.name+"/"+p.name, func(t *testing.T) {
				r := ringOff(newTM(mem.NewHeap(1<<10), Config{MaxThreads: 3}, cmp.Or(h.slots, commitQueueSlots)))
				defer r.Close()
				base := r.Heap().MustAlloc(8)
				write := func(i int) {
					if err := tm.Run(r, 2, func(x tm.Txn) error { return x.Write(base+mem.Addr(i), 1) }); err != nil {
						t.Fatal(err)
					}
				}
				// Thread 0 takes the policy under test, thread 1 the
				// reference; both start from the same reads.
				var xs [2]*txn
				for th := range xs {
					begin := r.Begin
					if th == 0 && p.readOnly {
						begin = r.BeginReadOnly
					}
					x, _ := begin(th)
					xs[th] = x.(*txn)
				}
				// read reads a on every thread, twice on a read-only one.
				read := func(a mem.Addr) {
					for th, x := range xs {
						reps := 1
						if x.readOnly {
							reps = 2
						}
						for n := 0; n < reps; n++ {
							if _, err := x.Read(a); err != nil {
								t.Fatalf("thread %d: %v", th, err)
							}
						}
					}
				}
				for i := 0; i < readers; i++ {
					read(base + mem.Addr(i))
				}
				if h.miss {
					write(2)
					read(base + 4) // folds the overlap: missAny
					if !xs[0].missAny {
						t.Fatal("setup: transaction not stale")
					}
				}
				for _, i := range h.commits {
					write(i)
				}
				// The address a read policy admits: the last one the history
				// wrote (missed, if the transaction is stale by then).
				a := base + 5
				if n := len(h.commits); n > 0 {
					a = base + mem.Addr(h.commits[n-1])
				}
				var idxBuf [16]int
				idx := r.hasher.Indices(uint64(a), idxBuf[:])
				g := r.GlobalTS()

				want := p.ref(xs[1], idx, g)
				got := ""
				if err := p.got(xs[0], a, idx, g); err != nil {
					got, _ = tm.IsAbort(err)
				}
				if got != want {
					t.Fatalf("abort = %q, reference %q", got, want)
				}
				if xs[0].validTS != xs[1].validTS && got == "" {
					t.Errorf("validTS = %d, reference %d", xs[0].validTS, xs[1].validTS)
				}
				if got == "" && (xs[0].localTS != xs[1].localTS || xs[0].missAny != xs[1].missAny) {
					t.Errorf("localTS/missAny = %d/%v, reference %d/%v",
						xs[0].localTS, xs[0].missAny, xs[1].localTS, xs[1].missAny)
				}
				if got == "" && xs[0].missAny && !xs[0].missSig.Equal(xs[1].missSig) {
					t.Error("MissSet differs from the reference")
				}
				if xs[0].readOnly && len(xs[0].reads.addrs) <= len(xs[1].reads.addrs) {
					t.Errorf("read-only read log holds %d addresses, the distinct set %d: no repeats kept",
						len(xs[0].reads.addrs), len(xs[1].reads.addrs))
				}
				if p.readOnly && got == "" {
					// The reference has not recorded a; the arm has.
					xs[1].reads.insert(uint64(a))
					for _, x := range xs {
						x.reads.sign(r.hasher)
					}
					if !xs[0].reads.sig.Equal(xs[1].reads.sig) {
						t.Error("read-set signature differs from the reference")
					}
				}
				for _, x := range xs {
					r.Abort(x) // a no-op on an attempt that already ended
				}
			})
		}
	}
}

// TestHardEngineErrorIsCounted: an attempt ended by a hard engine error — a
// closed engine — is an engine abort, so Starts == Commits + Aborts survives
// it, and the refused claim leaves nothing behind. This holds on both
// commit paths: Commit, and PublishFast, which also restores the heap.
func TestHardEngineErrorIsCounted(t *testing.T) {
	check := func(t *testing.T, m tm.TM, err error, live int) {
		t.Helper()
		if err == nil || !errors.Is(err, fpga.ErrClosed) {
			t.Fatalf("commit on a dead engine: err = %v, want a hard fpga.ErrClosed", err)
		}
		if _, abort := tm.IsAbort(err); abort {
			t.Fatalf("hard error %v reads as an abort", err)
		}
		st := m.Stats()
		if st.Starts != 1 || st.Commits != 0 || st.Aborts != 1 || st.Reasons[tm.ReasonEngine] != 1 {
			t.Errorf("Starts/Commits/Aborts = %d/%d/%d, reasons %v; want 1/0/1 with one %s abort",
				st.Starts, st.Commits, st.Aborts, st.Reasons, tm.ReasonEngine)
		}
		if live != 0 {
			t.Errorf("PoolCheck live = %d, want 0", live)
		}
	}
	// nothingBehind checks a runtime after a refused claim on a: no armed
	// update-set entry, GlobalTS unmoved, a's heap word unwritten.
	nothingBehind := func(t *testing.T, r *TM, a mem.Addr) {
		t.Helper()
		for i := range r.updates {
			if r.armed.Load()&(1<<uint(i)) != 0 {
				t.Errorf("update-set entry %d is still armed", i)
			}
		}
		if got := r.GlobalTS(); got != 0 {
			t.Errorf("GlobalTS = %d, want 0 (nothing published)", got)
		}
		if got := r.Heap().Load(a); got != 0 {
			t.Errorf("heap = %d after a refused commit, want 0", got)
		}
	}
	t.Run("TM", func(t *testing.T) {
		r := New(mem.NewHeap(1<<10), Config{MaxThreads: 1})
		defer r.Close()
		a := r.Heap().MustAlloc(1)
		x, _ := r.Begin(0)
		if err := x.Write(a, 1); err != nil {
			t.Fatal(err)
		}
		r.Engine().Close()
		err := r.Commit(x)
		live, _ := r.PoolCheck()
		check(t, r, err, live)
		nothingBehind(t, r, a)
	})
	t.Run("PublishFast", func(t *testing.T) {
		heap := mem.NewHeap(1 << 10)
		r := New(heap, Config{MaxThreads: 1, LineTable: mem.NewLineTable(heap.Cap())})
		defer r.Close()
		base := heap.MustAlloc(16)
		r.Engine().Close()
		fh := &fastHarness{r: r, lt: r.lt, heap: heap}
		if err := fh.publish(t, base, base+8, 42); !errors.Is(err, fpga.ErrClosed) {
			t.Fatalf("publish on a dead engine: err = %v, want a hard fpga.ErrClosed", err)
		}
		nothingBehind(t, r, base)
		if st := r.Stats(); st.Starts != st.Commits+st.Aborts {
			t.Errorf("Starts %d != Commits %d + Aborts %d", st.Starts, st.Commits, st.Aborts)
		}
	})
}

// TestEngineAbortsDoNotEscalateToIrrevocable: engine aborts — attempts ended
// by a closed engine — must not push a thread toward irrevocable mode, which
// would freeze all commits behind the global gate while the engine is down.
// The retry loop surfaces each one under an escalation budget of 2, and once
// the engine is back the thread's next attempt is an ordinary one.
func TestEngineAbortsDoNotEscalateToIrrevocable(t *testing.T) {
	m := New(mem.NewHeap(1<<10), Config{MaxThreads: 1})
	defer m.Close()
	a := m.Heap().MustAlloc(1)
	m.Engine().Close()
	pol := tm.BackoffPolicy{EscalateAfter: 2}
	for i := 0; i < 5; i++ {
		err := tm.RunUntil(time.Now().Add(time.Second), m, 0, pol, func(x tm.Txn) error { return x.Write(a, 1) })
		if !errors.Is(err, fpga.ErrClosed) {
			t.Fatalf("attempt %d: err = %v, want fpga.ErrClosed", i, err)
		}
	}
	if m.escalated[0] {
		t.Fatal("engine aborts armed an irrevocable turn")
	}
	if got := m.Stats().Reasons[tm.ReasonEngine]; got != 5 {
		t.Fatalf("%d %s aborts, want 5", got, tm.ReasonEngine)
	}
	m.Engine().Restart(m.GlobalTS())
	x, err := m.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if x.(*txn).irrevocable {
		t.Fatal("first attempt after the outage is irrevocable")
	}
	m.Abort(x)
}
