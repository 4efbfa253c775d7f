package fpga

import (
	"runtime"
	"sync/atomic"
)

// ring is the submission side of the batched transport: a bounded MPMC
// queue of Requests in the style of Vyukov's array queue. Producers are
// the committers (many); consumers are whoever holds the pipeline at the
// moment — a combining committer — plus the close sweeps that run
// concurrently with its final drain, so
// dequeue is CAS-based too and every party can drain the same ring without
// double-delivering a verdict.
//
// Each cell carries a sequence word: seq == pos means the cell is free for
// the producer of ticket pos, seq == pos+1 means it holds that ticket's
// request, and after consumption seq becomes pos+mask+1 (free for the next
// lap). The sequence store is the release that publishes the request copy;
// the load observing it is the matching acquire, so cell payloads need no
// further synchronization.
type ring struct {
	mask  uint64
	cells []ringCell
	_     [6]uint64
	enq   atomic.Uint64
	_     [7]uint64
	deq   atomic.Uint64
	_     [7]uint64
}

type ringCell struct {
	seq atomic.Uint64
	req Request
}

// newRing builds a ring with capacity depth rounded up to a power of two.
func newRing(depth int) *ring {
	n := 1
	for n < depth {
		n <<= 1
	}
	r := &ring{mask: uint64(n - 1), cells: make([]ringCell, n)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// size is a racy snapshot of the current occupancy (enqueue minus dequeue
// cursor). Stats only: concurrent pushes and pops can skew it by their
// in-flight count.
func (r *ring) size() int {
	if n := int64(r.enq.Load() - r.deq.Load()); n > 0 {
		return int(n)
	}
	return 0
}

// tryPush enqueues req; false means the ring is full (CCI backpressure).
//
//tm:hotpath
func (r *ring) tryPush(req Request) bool {
	for {
		pos := r.enq.Load()
		cell := &r.cells[pos&r.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				cell.req = req
				cell.seq.Store(pos + 1)
				return true
			}
		case seq < pos:
			return false // a full lap behind: no free cell
		default:
			// Another producer took this ticket; reload and retry.
		}
	}
}

// tryPop dequeues the oldest request; false means the ring is empty. If a
// producer has claimed a ticket but not yet published its cell, tryPop
// waits the (tiny) publication window out rather than reporting empty, so
// sweeps never strand an accepted request.
//
//tm:hotpath
func (r *ring) tryPop() (Request, bool) {
	for {
		pos := r.deq.Load()
		cell := &r.cells[pos&r.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos+1:
			if r.deq.CompareAndSwap(pos, pos+1) {
				req := cell.req
				cell.req = Request{} // drop footprint references
				cell.seq.Store(pos + r.mask + 1)
				return req, true
			}
		case seq < pos+1:
			if r.enq.Load() == pos {
				return Request{}, false
			}
			// Ticket pos is claimed but not yet published.
			runtime.Gosched()
		default:
			// Another consumer beat us to this ticket; reload and retry.
		}
	}
}
