package rococotm_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rococotm/internal/hybrid"
	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
)

// These tests drive the slow runtime's test seams (export_test.go) under
// the hybrid runtime, which builds its own rococotm.TM.

// newHybrid starts a hybrid runtime with four threads over a fresh heap.
func newHybrid(t *testing.T) (*hybrid.TM, *mem.Heap) {
	t.Helper()
	heap := mem.NewHeap(1 << 12)
	h := hybrid.New(heap, hybrid.Config{Slow: rococotm.Config{MaxThreads: 4}})
	t.Cleanup(h.Close)
	return h, heap
}

// TestHybridReadOnlyTornSnapshotAborts pins the read-only fast commit's
// commit-time validation. A slow write-back applies its stores line by
// line after bumping the publication clock once, so an invisible fast
// reader that starts mid-drain can collect one already-applied word and
// one not-yet-applied word without ever seeing the clock move. The
// write-back hook freezes the drain between the two stores to build exactly
// that snapshot deterministically; the read-only commit must refuse it.
func TestHybridReadOnlyTornSnapshotAborts(t *testing.T) {
	block := make(chan struct{})
	reached := make(chan struct{})
	var once sync.Once
	h, heap := newHybrid(t)
	rococotm.SetWritebackHook(h.Slow(), func(seq uint64, word int) {
		if word == 1 {
			once.Do(func() {
				close(reached)
				<-block
			})
		}
	})
	base := heap.MustAlloc(16)
	a, b := base, base+8 // distinct lines

	done := make(chan error, 1)
	go func() {
		done <- tm.Run(h.Slow(), 1, func(x tm.Txn) error {
			if err := x.Write(a, 1); err != nil {
				return err
			}
			return x.Write(b, 1)
		})
	}()
	<-reached // a stored and bumped; b untouched; write-back frozen mid-drain

	xt, err := h.Begin(0) // default site starts in try-fast
	if err != nil {
		t.Fatal(err)
	}
	va, err := xt.Read(a)
	if err != nil {
		t.Fatalf("Read(a): %v", err)
	}
	vb, err := xt.Read(b)
	if err != nil {
		t.Fatalf("Read(b): %v", err)
	}
	if va != 1 || vb != 0 {
		t.Fatalf("execution snapshot a=%d b=%d, hook should pin a=1 b=0", va, vb)
	}
	err = h.Commit(xt)
	if code, ok := tm.CodeOf(err); !ok || code != tm.CodeConflict {
		t.Fatalf("read-only commit of torn snapshot a=1 b=0: err=%v, want conflict abort", err)
	}

	close(block)
	if err := <-done; err != nil {
		t.Fatalf("slow writer: %v", err)
	}
	// With the write-back retired, a fresh read-only fast commit passes.
	if err := tm.Run(h, 0, func(x tm.Txn) error {
		va, err := x.Read(a)
		if err != nil {
			return err
		}
		vb, err := x.Read(b)
		if err != nil {
			return err
		}
		if va != 1 || vb != 1 {
			t.Errorf("post-drain snapshot a=%d b=%d, want 1/1", va, vb)
		}
		return nil
	}); err != nil {
		t.Fatalf("post-drain read-only txn: %v", err)
	}
}

// TestHybridIrrevocableReadSpinsOutFastOwner: an irrevocable transaction's
// Read must never abort, even with a pathologically small read spin limit
// and a fast transaction parked on the line it wants. The reader dooms
// the fast owner and waits it out instead.
func TestHybridIrrevocableReadSpinsOutFastOwner(t *testing.T) {
	h, heap := newHybrid(t)
	rococotm.SetReadSpinLimit(h.Slow(), 1)
	a := heap.MustAlloc(1)

	fx, err := h.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.Write(a, 7); err != nil { // fast path: owns a's line, seqlock odd
		t.Fatal(err)
	}

	h.Escalate(1) // next attempt on thread 1 is slow and irrevocable
	done := make(chan error, 1)
	vch := make(chan mem.Word, 1)
	go func() {
		ix, err := h.Begin(1)
		if err != nil {
			done <- err
			return
		}
		v, err := ix.Read(a)
		if err != nil {
			done <- fmt.Errorf("irrevocable Read aborted: %w (no-abort contract)", err)
			return
		}
		vch <- v
		done <- h.Commit(ix)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if rococotm.ThreadDoomed(h.Slow(), 0) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("irrevocable reader never doomed the fast line owner")
		}
		time.Sleep(time.Millisecond)
	}
	// The doomed owner's next operation rolls it back and releases the line.
	_, werr := fx.Read(a)
	if code, ok := tm.CodeOf(werr); !ok || code != tm.CodeConflict {
		t.Fatalf("doomed fast owner's Read: err=%v, want conflict abort", werr)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("irrevocable Read still blocked after the fast owner released")
	}
	if rv := <-vch; rv != 0 {
		t.Fatalf("irrevocable Read = %d, want 0 (fast owner's store rolled back)", rv)
	}
}
