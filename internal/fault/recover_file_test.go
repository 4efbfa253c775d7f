package fault_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// These soaks run recovery against real files — wal.FileDevice in a temp
// dir — instead of MemDevice crash images. They cover the untampered I/O
// stack (os.File append/sync/truncate, reopening by path) plus a
// power-loss shape the in-memory chaos tests model synthetically: garbage
// bytes past the last sync.

// TestFileRecoverDurable: single-TM clean-restart cycles against one
// file, with garbage appended past the synced tail on alternate cycles
// (a power loss mid-append leaves exactly that). Counters must be exact
// across every restart and each recovered stream must certify.
func TestFileRecoverDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("file-backed recovery soak skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "tm.wal")
	const (
		cycles  = 6
		writers = 3
		iters   = 25
	)
	want := uint64(0)
	for cycle := 0; cycle < cycles; cycle++ {
		dev, err := wal.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		heap := mem.NewHeap(1 << 12)
		base := heap.MustAlloc(writers)
		d, res, err := rococotm.RecoverDurable(dev, heap,
			wal.Options{FlushInterval: 200 * time.Microsecond}, mvstore.Config{}, true)
		if err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		certifyRecovered(t, res.Records)
		var got uint64
		for th := 0; th < writers; th++ {
			got += uint64(heap.Load(base + mem.Addr(th)))
		}
		if got != want {
			t.Fatalf("cycle %d: recovered %d increments, want %d", cycle, got, want)
		}

		m := rococotm.New(heap, rococotm.Config{Durable: d})
		var wg sync.WaitGroup
		for th := 0; th < writers; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				a := base + mem.Addr(th)
				for i := 0; i < iters; i++ {
					if err := tm.Run(m, th, func(x tm.Txn) error {
						v, err := x.Read(a)
						if err != nil {
							return err
						}
						return x.Write(a, v+1)
					}); err != nil {
						t.Errorf("cycle %d thread %d: %v", cycle, th, err)
						return
					}
				}
			}(th)
		}
		wg.Wait()
		want += writers * iters
		m.Close()
		if cycle%2 == 1 {
			// Torn in-flight append: bytes past the last sync that never
			// formed a record. 0xFF decodes as an implausible length, so
			// recovery must truncate it without touching the real tail.
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			garbage := make([]byte, 37)
			for i := range garbage {
				garbage[i] = 0xFF
			}
			if _, err := f.Write(garbage); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := dev.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if want == 0 {
		t.Fatal("soak committed nothing")
	}
}
