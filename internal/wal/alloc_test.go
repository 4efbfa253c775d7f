//go:build !race

// Steady-state allocation test for the group-commit writer. Excluded from
// race builds: the race runtime instruments allocations and makes
// AllocsPerRun meaningless there.
package wal

import (
	"runtime"
	"testing"
	"time"
)

// sinkDevice is a Device that keeps only a byte count, so the only
// allocations a flush can show are the Log's own.
type sinkDevice struct{ n int64 }

func (d *sinkDevice) Append(p []byte) error     { d.n += int64(len(p)); return nil }
func (d *sinkDevice) Sync() error               { return nil }
func (d *sinkDevice) Contents() ([]byte, error) { return nil, nil }
func (d *sinkDevice) Truncate(n int64) error    { d.n = n; return nil }
func (d *sinkDevice) Size() (int64, error)      { return d.n, nil }
func (d *sinkDevice) Close() error              { return nil }

// TestAppendZeroAllocsAcrossFlushes: once both halves of the double buffer
// have grown to a flush's worth of records, appending and flushing again
// allocates nothing — three Sync-forced flushes per measured run.
func TestAppendZeroAllocsAcrossFlushes(t *testing.T) {
	l := Open(&sinkDevice{}, 0, Options{FlushInterval: time.Hour})
	defer l.Close()
	recs := mkRecords(0, 64)
	seq := uint64(0)
	cycle := func() {
		for f := 0; f < 3; f++ {
			for i := range recs {
				recs[i].Seq = seq
				seq++
				if err := l.Append(&recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // grow both buffers
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("Append+Sync allocates %v per three flushes", n)
	}
}

// TestMemDeviceWritesEachByteOnce: a MemDevice allocates the bytes it
// stores and little else, so 64 MiB of 8 KiB appends allocate at most
// 1.05x 64 MiB. A device that regrows one slice by doubling allocates
// about twice that, and copies the log at every doubling.
func TestMemDeviceWritesEachByteOnce(t *testing.T) {
	const total, step = 64 << 20, 8 << 10
	p := make([]byte, step)
	dev := NewMemDevice(nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < total; n += step {
		if err := dev.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if n, _ := dev.Size(); n != total {
		t.Fatalf("device holds %d bytes, want %d", n, total)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; float64(grew) > 1.05*total {
		t.Fatalf("appending %d bytes allocated %d bytes (%.2fx)", total, grew, float64(grew)/total)
	}
}
