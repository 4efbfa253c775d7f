package rococotm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rococotm/internal/audit"
	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// TestPipelinedWritebackNoTornReads is the decoupled-pipeline stress test:
// a tiny commit queue keeps committers colliding, and a write-back hook
// yields between every redo-log word so write-backs are pinned mid-flight
// while the global timestamp has already moved past them. Writers maintain
// pair invariants (two words always equal); transactional readers must
// never observe a torn pair or a pre-write-back half. Run under -race this
// also checks the publication fences around the update-set entries.
func TestPipelinedWritebackNoTornReads(t *testing.T) {
	const (
		writers = 4
		readers = 3
		pairs   = 8
		txns    = 400
	)
	m := newTM(mem.NewHeap(1<<12), Config{}, 64)
	m.wbHook = func(seq uint64, word int) {
		// Widen the window between timestamp release and heap store:
		// with the pipeline decoupled this is exactly where a reader
		// could catch a stale word if the update-set lock were dropped
		// too early.
		runtime.Gosched()
	}
	defer m.Close()
	base := m.Heap().MustAlloc(2 * pairs)
	lo := func(p int) mem.Addr { return base + mem.Addr(2*p) }
	hi := func(p int) mem.Addr { return base + mem.Addr(2*p+1) }

	var wg sync.WaitGroup
	var torn atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				p := (i + w) % pairs
				v := mem.Word(w*txns + i + 1)
				//lint:ignore tmlint/aborterr stress loop: a failed attempt is retried by the next iteration
				_ = tm.Run(m, w, func(x tm.Txn) error {
					if err := x.Write(lo(p), v); err != nil {
						return err
					}
					return x.Write(hi(p), v)
				})
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < txns*2; i++ {
				p := (i + rd) % pairs
				var a, b mem.Word
				//lint:ignore tmlint/aborterr stress loop: a failed attempt is retried by the next iteration
				if err := tm.Run(m, writers+rd, func(x tm.Txn) error {
					var err error
					if a, err = x.Read(lo(p)); err != nil {
						return err
					}
					b, err = x.Read(hi(p))
					return err
				}); err == nil && a != b {
					torn.Add(1)
				}
			}
		}(rd)
	}
	wg.Wait()
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn pair reads: a committed-but-unwritten update leaked to a reader", n)
	}
	st := m.Stats()
	if st.Commits == 0 {
		t.Fatal("stress made no progress")
	}
	if st.CommitPipelinePeak < 2 {
		t.Fatalf("CommitPipelinePeak = %d; pinned write-backs never overlapped — the pipeline did not decouple", st.CommitPipelinePeak)
	}
}

// TestPinnedWritebackBlocksConflictingReader pins one committer's
// write-back on a gate while its timestamp is already released, and checks
// the two sides of the early-release contract directly: a reader of the
// written address cannot complete until the write-back lands (it must see
// the final value, never the old one at a post-commit snapshot), while a
// reader of a disjoint address sails through the pinned commit.
func TestPinnedWritebackBlocksConflictingReader(t *testing.T) {
	gate := make(chan struct{})
	armed := make(chan struct{})
	var arm atomic.Bool
	m := New(mem.NewHeap(1<<12), Config{})
	m.wbHook = func(seq uint64, word int) {
		if arm.CompareAndSwap(true, false) {
			close(armed)
			<-gate
		}
	}
	defer m.Close()
	target := m.Heap().MustAlloc(1)
	other := m.Heap().MustAlloc(1)

	arm.Store(true)
	done := make(chan error, 1)
	go func() {
		done <- tm.Run(m, 0, func(x tm.Txn) error {
			return x.Write(target, 77)
		})
	}()
	<-armed // committer has its timestamp released (or imminently) and is pinned mid-write-back

	// Disjoint reader: must not be blocked by the pinned write-back.
	if err := tm.Run(m, 1, func(x tm.Txn) error {
		_, err := x.Read(other)
		return err
	}); err != nil {
		t.Fatalf("disjoint read blocked behind a pinned write-back: %v", err)
	}

	// Conflicting reader: retried Runs must not return the pre-write-back
	// value once the commit is published. Collect until the gate opens.
	readerDone := make(chan mem.Word, 1)
	go func() {
		for {
			var v mem.Word
			err := tm.Run(m, 2, func(x tm.Txn) error {
				var err error
				v, err = x.Read(target)
				return err
			})
			//lint:ignore tmlint/aborterr spin-until-commit probe: aborts are the expected outcome while the write-back is pinned
			if err == nil {
				readerDone <- v
				return
			}
		}
	}()
	select {
	case v := <-readerDone:
		// The read committed before the write-back: with GlobalTS already
		// past the commit, the only legal value is the new one — seeing 0
		// here means the update-set lock released early.
		if v != 77 {
			t.Fatalf("reader observed pre-write-back value %d at a post-commit snapshot", v)
		}
	case <-time.After(50 * time.Millisecond):
		// Blocking until the write-back lands is the expected outcome.
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("pinned commit failed: %v", err)
	}
	if v := <-readerDone; v != 77 {
		t.Fatalf("post-release read = %d, want 77", v)
	}
	if m.Heap().Load(target) != 77 {
		t.Fatal("write-back never landed")
	}
}

// TestPipelinedSoakAuditorClean is the auditor-wired soak of the pipelined
// path in unit-test form (the 60s chaos version lives in internal/bench):
// concurrent conflicting counters on the decoupled pipeline with pinned
// write-backs, every commit streamed to the serializability auditor, which
// must certify the history acyclic.
func TestPipelinedSoakAuditorClean(t *testing.T) {
	if err := audit.SelfTest(); err != nil {
		t.Fatalf("auditor self-test: %v", err)
	}
	auditor := audit.New(audit.Config{})
	m := newTM(mem.NewHeap(1<<12), Config{Observer: auditor}, 128)
	m.wbHook = func(seq uint64, word int) { runtime.Gosched() }
	defer m.Close()
	const threads, addrs = 6, 8
	base := m.Heap().MustAlloc(addrs)
	var wg sync.WaitGroup
	deadline := time.Now().Add(2 * time.Second)
	if testing.Short() {
		deadline = time.Now().Add(300 * time.Millisecond)
	}
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				a := base + mem.Addr((i+th)%addrs)
				b := base + mem.Addr((i*3+th)%addrs)
				//lint:ignore tmlint/aborterr soak loop: failed attempts are tolerated, the auditor judges the survivors
				_ = tm.Run(m, th, func(x tm.Txn) error {
					v, err := x.Read(a)
					if err != nil {
						return err
					}
					return x.Write(b, v+1)
				})
			}
		}(th)
	}
	wg.Wait()
	if err := auditor.Err(); err != nil {
		t.Fatalf("pipelined soak: %v", err)
	}
	if st := auditor.Stats(); st.Observed == 0 {
		t.Fatal("auditor observed no commits")
	}
}
