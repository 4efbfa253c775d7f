package rococotm

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// feature is one axis of the pairwise composition table. Its name is the
// token a Validate error must carry when it rejects a pair with the feature.
type feature string

const (
	fObserver  feature = "Observer"
	fDurable   feature = "Durable"
	fLineTable feature = "LineTable"
	fWatchdog  feature = "WatchdogAge"
)

// cell is one configuration of the table: validate is its legality function,
// start its constructor.
type cell struct {
	validate func() error
	start    func() tm.TM
}

// newCell turns a feature set on over a fresh heap.
func newCell(t *testing.T, on ...feature) cell {
	t.Helper()
	heap := mem.NewHeap(1 << 10)
	cfg := Config{MaxThreads: 2}
	for _, f := range on {
		switch f {
		case fObserver:
			cfg.Observer = &recObserver{}
		case fDurable:
			d, _, err := RecoverDurable(wal.NewMemDevice(nil), heap, wal.Options{}, mvstore.Config{}, false)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Durable = d
		case fLineTable:
			cfg.LineTable = mem.NewLineTable(heap.Cap())
		case fWatchdog:
			cfg.WatchdogAge = time.Minute
		}
	}
	return cell{func() error { return cfg.Validate(heap) },
		func() tm.TM { return New(heap, cfg) }}
}

// mustReject checks that c is rejected by its Validate with an error naming
// every given feature, and that its constructor panics with that error and
// nothing else.
func mustReject(t *testing.T, c cell, names ...feature) {
	t.Helper()
	err := c.validate()
	if err == nil {
		t.Fatal("Validate accepted the configuration")
	}
	for _, f := range names {
		if !strings.Contains(err.Error(), string(f)) {
			t.Errorf("Validate error %q does not name %s", err, f)
		}
	}
	defer func() {
		if got := recover(); got == nil || fmt.Sprint(got) != err.Error() {
			t.Errorf("constructor panicked with %v, want Validate's error %q", got, err)
		}
	}()
	c.start().Close()
}

// TestConfigPairwise: every pair of features either composes — the runtime
// builds and commits an update transaction — or is rejected by Validate with
// an error naming both features; the constructors panic with that error and
// from nowhere else. The rejected set is pinned, so a pair that silently
// changes side shows up here.
func TestConfigPairwise(t *testing.T) {
	features := []feature{fObserver, fDurable, fLineTable, fWatchdog}
	rejected := map[[2]feature]bool{
		{fDurable, fLineTable}: true,
	}
	for i, a := range features {
		for _, b := range features[i+1:] {
			t.Run(string(a)+"+"+string(b), func(t *testing.T) {
				c := newCell(t, a, b)
				if rejected[[2]feature{a, b}] {
					mustReject(t, c, a, b)
					return
				}
				if err := c.validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				m := c.start()
				defer m.Close()
				addr := m.Heap().MustAlloc(1)
				if err := tm.Run(m, 0, func(x tm.Txn) error {
					v, err := x.Read(addr)
					if err != nil {
						return err
					}
					return x.Write(addr, v+1)
				}); err != nil {
					t.Fatal(err)
				}
				if got := m.Heap().Load(addr); got != 1 {
					t.Fatalf("heap = %d after one increment", got)
				}
				if st := m.Stats(); st.Commits != 1 || st.Starts != st.Commits+st.Aborts {
					t.Fatalf("stats after one commit: %+v", st)
				}
			})
		}
	}
	// The gates on a single field: a line table must cover the heap, and
	// each thread needs a bit of the update set's armed word.
	t.Run("LineTable too short", func(t *testing.T) {
		heap := mem.NewHeap(1 << 10)
		cfg := Config{LineTable: mem.NewLineTable(8)}
		mustReject(t, cell{func() error { return cfg.Validate(heap) },
			func() tm.TM { return New(heap, cfg) }}, fLineTable)
	})
	t.Run("MaxThreads 65", func(t *testing.T) {
		heap := mem.NewHeap(1 << 10)
		cfg := Config{MaxThreads: 65}
		mustReject(t, cell{func() error { return cfg.Validate(heap) },
			func() tm.TM { return New(heap, cfg) }}, "MaxThreads")
	})
}
