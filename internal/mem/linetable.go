package mem

import (
	"fmt"
	"sync/atomic"
)

// LineTable is the per-cache-line metadata the hybrid runtime shares
// between its uninstrumented fast path and the engine-validated slow path.
// Each line carries two words:
//
//   - an ownership word, encoded exactly like the HTM model's line state
//     (bits 0..55 a reader bitmap, bits 56..63 writer+1) — fast
//     transactions take encounter-time 2PL on it against each other, and
//     slow-path readers spin on a foreign writer so they never observe a
//     fast transaction's uncommitted eager stores;
//   - a version word, a per-line seqlock: odd while a committed fast
//     transaction (or an engine write-back) is applying its stores to the
//     line, bumped to a new even value when the stores are in place. Fast
//     readers record the even version at first read and revalidate it at
//     commit, which is what makes their uninstrumented reads serializable
//     against concurrent engine write-backs.
//
// A global version clock counts publications (fast or slow) that wrote
// anywhere; fast transactions re-check it on every read and revalidate
// their read lines when it moved, preserving opacity without read
// signatures.
type LineTable struct {
	own []atomic.Uint64
	ver []atomic.Uint64
	// clock counts store-visibility events: every fast publication and
	// every engine write-back bumps it once (before their line version
	// bumps become observable).
	clock atomic.Uint64
}

// LineWriterShift positions the writer+1 field in an ownership word; the
// encoding (and the 56-thread bound it implies) matches internal/htm.
const LineWriterShift = 56

// LineSlowWriter is the reserved writer id the slow path's write-back uses
// to hold a line for its store+version-bump window. It is far above any
// fast thread id (fast threads are bounded by the 56-bit reader bitmap),
// so a fast transaction meeting it treats the line as owned and backs off.
const LineSlowWriter = 254

// LineReaderBit returns thread's bit in the reader bitmap.
//
//tm:hotpath
func LineReaderBit(thread int) uint64 { return 1 << uint(thread) }

// LineWriterOf decodes the writer field: -1 means no writer.
//
//tm:hotpath
func LineWriterOf(s uint64) int { return int(s>>LineWriterShift) - 1 }

// LineWithWriter returns s with the writer field set to thread.
//
//tm:hotpath
func LineWithWriter(s uint64, thread int) uint64 {
	return (s & (1<<LineWriterShift - 1)) | uint64(thread+1)<<LineWriterShift
}

// NewLineTable returns a table covering every line of a heap with the
// given word capacity.
func NewLineTable(heapCap int) *LineTable {
	if heapCap < 1 {
		panic(fmt.Sprintf("mem: LineTable over %d words", heapCap))
	}
	n := (uint64(heapCap-1) >> LineShift) + 1
	return &LineTable{
		own: make([]atomic.Uint64, n),
		ver: make([]atomic.Uint64, n),
	}
}

// Lines returns the number of lines covered.
func (t *LineTable) Lines() int { return len(t.own) }

// Own returns the ownership word for line l (for CAS loops).
//
//tm:hotpath
func (t *LineTable) Own(l uint64) *atomic.Uint64 { return &t.own[l] }

// Release clears line l's writer, preserving the reader bits.
//
//tm:hotpath
func (t *LineTable) Release(l uint64) {
	for {
		s := t.own[l].Load()
		if t.own[l].CompareAndSwap(s, LineWithWriter(s, -1)) {
			return
		}
	}
}

// Version loads line l's seqlock version.
//
//tm:hotpath
func (t *LineTable) Version(l uint64) uint64 { return t.ver[l].Load() }

// BeginApply marks line l's version odd: stores to the line are in flight.
// Callers must hold the line's write ownership (or an equivalent exclusion
// like the slow path's commit turn), so the bump cannot race another bump.
//
//tm:hotpath
func (t *LineTable) BeginApply(l uint64) { t.ver[l].Add(1) }

// EndApply completes a BeginApply, leaving a new even version.
//
//tm:hotpath
func (t *LineTable) EndApply(l uint64) { t.ver[l].Add(1) }

// Bump advances line l's version by a full seqlock cycle in one step.
// It is parity-preserving, which is what the slow path's write-back must
// use: a fast transaction may own the line at that moment (its eager
// store was just clobbered; its validation will see the version move and
// roll back), and an odd/even toggle would corrupt its in-flight seqlock.
//
//tm:hotpath
func (t *LineTable) Bump(l uint64) { t.ver[l].Add(2) }

// Clock loads the global publication clock.
//
//tm:hotpath
func (t *LineTable) Clock() uint64 { return t.clock.Load() }

// BumpClock announces a publication: fast readers that started before the
// bump revalidate their lines before trusting further reads.
//
//tm:hotpath
func (t *LineTable) BumpClock() { t.clock.Add(1) }
