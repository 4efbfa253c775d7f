// Package fault is deterministic disk-level fault injection for the
// durability layer: a wal.Device whose crash behavior is adversarial but
// physically honest. Synced bytes are stable; everything after the last
// successful Sync is fair game at crash time — appends survive whole, as
// torn prefixes, or not at all, bit flips land anywhere in the unsynced
// region, and Sync itself can stall or fail (in which case durability must
// NOT advance; the WAL's group-commit flusher is expected to retry). The one
// guarantee a real disk gives and this model keeps: a record that was
// reported durable is never lost or corrupted.
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rococotm/internal/wal"
)

// DiskSchedule describes the disk fault scenario. Probabilities are in
// [0,1]; the zero schedule is a transparent in-memory device.
type DiskSchedule struct {
	// Seed drives every randomized decision, drawn in call order under a
	// mutex — one flusher goroutine means one deterministic replay.
	Seed int64

	// Crash-image perturbations, applied per unsynced append when
	// CrashImage is taken. An append either survives whole, survives as a
	// torn prefix (TornProb) — losing everything after it — or vanishes
	// with everything after it (DropProb). TornProb+DropProb must be ≤ 1.
	TornProb float64
	DropProb float64

	// FlipProb is the per-byte probability of a bit flip in the unsynced
	// region of the crash image — the bogus-sector model the WAL checksum
	// exists for. Keep it small; it is per byte.
	FlipProb float64

	// SyncErrProb makes Sync return an injected error without advancing
	// durability. SyncStallProb/SyncStallFor block Sync for a while first
	// (the saturated-device model); a stalled sync may still succeed.
	SyncErrProb   float64
	SyncStallProb float64
	SyncStallFor  time.Duration
}

// Validate rejects out-of-range schedules, mirroring Schedule.Validate.
func (s *DiskSchedule) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"TornProb", s.TornProb},
		{"DropProb", s.DropProb},
		{"FlipProb", s.FlipProb},
		{"SyncErrProb", s.SyncErrProb},
		{"SyncStallProb", s.SyncStallProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: disk %s = %v outside [0,1]", p.name, p.v)
		}
	}
	if s.TornProb+s.DropProb > 1 {
		return fmt.Errorf("fault: disk TornProb+DropProb = %v exceeds 1", s.TornProb+s.DropProb)
	}
	if s.Seed < 0 {
		return fmt.Errorf("fault: disk Seed = %d is negative", s.Seed)
	}
	if s.SyncStallFor < 0 {
		return fmt.Errorf("fault: disk SyncStallFor = %v negative", s.SyncStallFor)
	}
	return nil
}

// DiskStats counts injected disk faults.
type DiskStats struct {
	Appends    uint64
	Syncs      uint64 // successful syncs
	SyncErrors uint64 // injected sync failures
	SyncStalls uint64
	TornTails  uint64 // appends torn at crash-image time
	DroppedOps uint64 // appends dropped at crash-image time
	BitFlips   uint64
}

// Disk is a wal.Device with injected write-path faults and an explicit
// crash model: Contents sees every append (the OS page-cache view), while
// CrashImage sees only what a power loss would leave behind.
type Disk struct {
	sched DiskSchedule

	mu       sync.Mutex
	rng      *rand.Rand
	data     []byte   // synced (durable) content
	unsynced [][]byte // appends since the last successful sync, in order

	nAppends, nSyncs, nSyncErrs, nStalls atomic.Uint64
	nTorn, nDropped, nFlips              atomic.Uint64
}

// NewDisk builds a faulty in-memory device whose durable content starts as
// initial (e.g. a previous incarnation's crash image). It panics on an
// invalid schedule, like Wrap.
func NewDisk(initial []byte, sched DiskSchedule) *Disk {
	if err := sched.Validate(); err != nil {
		panic(err)
	}
	return &Disk{
		sched: sched,
		rng:   rand.New(rand.NewSource(sched.Seed)),
		data:  append([]byte(nil), initial...),
	}
}

// Stats returns a snapshot of the disk fault counters.
func (d *Disk) Stats() DiskStats {
	return DiskStats{
		Appends:    d.nAppends.Load(),
		Syncs:      d.nSyncs.Load(),
		SyncErrors: d.nSyncErrs.Load(),
		SyncStalls: d.nStalls.Load(),
		TornTails:  d.nTorn.Load(),
		DroppedOps: d.nDropped.Load(),
		BitFlips:   d.nFlips.Load(),
	}
}

// Append implements wal.Device. The bytes land in the page cache
// (unsynced) — visible to Contents, vulnerable to CrashImage.
func (d *Disk) Append(p []byte) error {
	d.mu.Lock()
	d.unsynced = append(d.unsynced, append([]byte(nil), p...))
	d.mu.Unlock()
	d.nAppends.Add(1)
	return nil
}

// Sync implements wal.Device: it may stall, may fail (durability stays
// put), and on success promotes every unsynced append to durable.
func (d *Disk) Sync() error {
	d.mu.Lock()
	stall := d.sched.SyncStallProb > 0 && d.rng.Float64() < d.sched.SyncStallProb
	fail := d.sched.SyncErrProb > 0 && d.rng.Float64() < d.sched.SyncErrProb
	if stall {
		d.nStalls.Add(1)
		dur := d.sched.SyncStallFor
		d.mu.Unlock()
		time.Sleep(dur)
		d.mu.Lock()
	}
	if fail {
		d.mu.Unlock()
		d.nSyncErrs.Add(1)
		return fmt.Errorf("fault: injected sync error")
	}
	for _, p := range d.unsynced {
		d.data = append(d.data, p...)
	}
	d.unsynced = d.unsynced[:0]
	d.mu.Unlock()
	d.nSyncs.Add(1)
	return nil
}

// Contents implements wal.Device: the live (page-cache) view, synced plus
// unsynced in append order.
func (d *Disk) Contents() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := append([]byte(nil), d.data...)
	for _, p := range d.unsynced {
		out = append(out, p...)
	}
	return out, nil
}

// Truncate implements wal.Device (recovery uses it to cut a torn tail).
func (d *Disk) Truncate(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n <= int64(len(d.data)) {
		d.data = d.data[:n]
		d.unsynced = d.unsynced[:0]
		return nil
	}
	keep := n - int64(len(d.data))
	for i, p := range d.unsynced {
		if keep <= int64(len(p)) {
			d.unsynced[i] = p[:keep]
			d.unsynced = d.unsynced[:i+1]
			return nil
		}
		keep -= int64(len(p))
	}
	return nil
}

// Size implements wal.Device.
func (d *Disk) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := int64(len(d.data))
	for _, p := range d.unsynced {
		n += int64(len(p))
	}
	return n, nil
}

// Close implements wal.Device.
func (d *Disk) Close() error { return nil }

// CrashImage models a power loss: it returns what the platter would hold.
// Synced bytes survive verbatim. Unsynced appends are processed in order:
// each survives whole, survives as a torn prefix (everything after it is
// lost), or is dropped with everything after it — matching how a real log
// device loses a suffix of the in-flight write stream. Bit flips then land
// in the surviving unsynced region only. The Disk itself is unchanged;
// feed the image to NewDisk/wal.Recover to build the next incarnation.
func (d *Disk) CrashImage() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := append([]byte(nil), d.data...)
	syncedLen := len(img)
	for _, p := range d.unsynced {
		r := d.rng.Float64()
		if r < d.sched.DropProb {
			d.nDropped.Add(1)
			break
		}
		if r < d.sched.DropProb+d.sched.TornProb {
			d.nTorn.Add(1)
			if len(p) > 0 {
				img = append(img, p[:d.rng.Intn(len(p))]...)
			}
			break
		}
		img = append(img, p...)
	}
	if d.sched.FlipProb > 0 {
		for i := syncedLen; i < len(img); i++ {
			if d.rng.Float64() < d.sched.FlipProb {
				img[i] ^= 1 << d.rng.Intn(8)
				d.nFlips.Add(1)
			}
		}
	}
	return img
}

var _ wal.Device = (*Disk)(nil)
