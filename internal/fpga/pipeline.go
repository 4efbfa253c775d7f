package fpga

import (
	"math/bits"

	"rococotm/internal/core"
	"rococotm/internal/sig"
)

// Pipeline is the serial behavioral model of the Detector/Manager dataflow:
// the window, the per-slot signature bookkeeping and the ROCoCo validation,
// with no queues or goroutines around it. Engine runs it under its lock,
// on the committer's goroutine.
//
// All state is preallocated at construction, so Process performs no heap
// allocation in steady state, mirroring the hardware's fixed register/BRAM
// budget (§5.1: every structure is sized a priori).
//
// Pipeline is not safe for concurrent use; callers serialize Process, which
// is the software equivalent of the one-verdict-per-cycle manager.
type Pipeline struct {
	cfg    Config
	hasher *sig.Hasher
	win    *core.Window
	k      int // hash functions per signature (cfg.Sig.K)

	// rBits/wBits hold the k bit positions of every request address,
	// hashed once per request and probed against all W history entries —
	// the software analogue of the hardware hashing each address exactly
	// once as it streams in (§5.3). Grown amortized; steady state reuses.
	rBits, wBits []int32

	// Columnar occupancy — the software form of the hardware's parallel
	// compare across all window slots in one cycle. readCols/writeCols
	// hold, for every signature bit position, the 64-bit column of ring
	// slots whose read/write signature contains that bit; commit seq sits
	// in slot seq&63, the window's own ring coordinates, so the hit masks
	// feed InsertRing as they are. A request address hits exactly the
	// slots in the AND of its k columns — bit-identical to probing that
	// address against each entry's signature — so the O(W) entry scan
	// collapses to k word-ANDs per address. slotRBits/slotWBits remember
	// each slot's inserted positions, so a slot's bits are cleared exactly
	// when the next commit reuses it; until then an evicted slot's stale
	// bits are masked off by the window, which ignores untracked slots.
	readCols, writeCols  []uint64
	slotRBits, slotWBits [64][]int32

	stats Stats
}

// NewPipeline builds a validator for the given (validated, filled)
// configuration.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	return &Pipeline{
		cfg:       cfg,
		hasher:    sig.NewHasher(cfg.Sig, sigSeed),
		win:       core.NewWindow(cfg.w),
		k:         cfg.Sig.K,
		rBits:     make([]int32, 0, 64),
		wBits:     make([]int32, 0, 64),
		readCols:  make([]uint64, cfg.Sig.M),
		writeCols: make([]uint64, cfg.Sig.M),
	}, nil
}

// Config returns the pipeline's (filled) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Hasher returns the signature hasher shared with the CPU side.
func (p *Pipeline) Hasher() *sig.Hasher { return p.hasher }

// Stats returns a copy of the counters.
func (p *Pipeline) Stats() Stats { return p.stats }

// BaseSeq returns the oldest tracked commit sequence.
func (p *Pipeline) BaseSeq() core.Seq { return p.win.BaseSeq() }

// NextSeq returns the sequence the next commit will receive.
func (p *Pipeline) NextSeq() core.Seq { return p.win.NextSeq() }

// ResetAt discards all window state and rebases sequence numbering at next
// — the crash/recovery semantics: whatever the validator knew about the
// last W commits is gone, so transactions with snapshots older than next
// will abort with a window verdict until they refresh.
func (p *Pipeline) ResetAt(next core.Seq) {
	p.win.ResetAt(next)
	clear(p.readCols)
	clear(p.writeCols)
	for i := range p.slotRBits {
		p.slotRBits[i] = p.slotRBits[i][:0]
		p.slotWBits[i] = p.slotWBits[i][:0]
	}
}

// hitSlots returns the slot mask of window entries whose column set
// (readCols or writeCols) contains every address of bits (k positions per
// address): for each address, the AND of its k columns is exactly the set
// of slots a per-entry membership probe of that address would report — the
// paper's rationale for shipping addresses (not signatures) to the FPGA
// (§5.3), evaluated against all W slots at once like the hardware's
// parallel compare. Residual false positives are those of the query
// operation, far below a signature intersection's.
func hitSlots(cols []uint64, bitsOf []int32, k int) uint64 {
	var hits uint64
	for off := 0; off+k <= len(bitsOf); off += k {
		m := ^uint64(0)
		for _, bit := range bitsOf[off : off+k] {
			m &= cols[bit]
		}
		hits |= m
	}
	return hits
}

// Process validates one request against the window.
func (p *Pipeline) Process(r Request) Verdict {
	p.stats.Requests++

	cycles := requestCycles(len(r.ReadAddrs), len(r.WriteAddrs))
	p.stats.ModelCycles += cycles
	nanos := cyclesToNanos(cycles)

	// Window-overflow rule (§4.2): if unseen commits have already been
	// evicted — by sliding, or wholesale by a crash/ResetAt — the
	// transaction neglects updates of t_{k-W} and must abort. The check
	// deliberately does not require a non-empty window: after ResetAt the
	// window is empty but BaseSeq records how much history was lost.
	validSeq := core.Seq(r.ValidTS)
	if validSeq < p.win.BaseSeq() {
		p.stats.WindowAborts++
		return Verdict{Token: r.Token, Reason: ReasonWindow, ModelNanos: nanos}
	}

	// Detector: hash the transaction's addresses exactly once, then derive
	// the f/b adjacency vectors with three columnar compares over all W
	// slots at once. rHitW marks entries whose write signature may contain
	// a read address (RAW/stale-read edges), wHitR entries whose read
	// signature may contain a write address (WAR), wHitW write/write pairs
	// (WAW).
	p.rBits = p.hasher.AppendBits(p.rBits[:0], r.ReadAddrs)
	p.wBits = p.hasher.AppendBits(p.wBits[:0], r.WriteAddrs)
	rHitW := hitSlots(p.writeCols, p.rBits, p.k)
	wHitR := hitSlots(p.readCols, p.wBits, p.k)
	wHitW := hitSlots(p.writeCols, p.wBits, p.k)

	// Seen commits (seq < ValidTS): any dependence points backward. Unseen
	// commits, the ring range [ValidTS, next): a stale read orders the
	// transaction before them (forward edge); WAR/WAW order it after.
	var unseen uint64
	if next := p.win.NextSeq(); validSeq < next {
		unseen = bits.RotateLeft64(uint64(1)<<uint(next-validSeq)-1, int(validSeq&63))
	}
	f := rHitW & unseen
	b := rHitW&^unseen | wHitR | wHitW

	// Manager: ROCoCo reachability validation and commit.
	seq, ok := p.win.InsertRing(f, b)
	if !ok {
		p.stats.CycleAborts++
		return Verdict{Token: r.Token, Reason: ReasonCycle, ModelNanos: nanos}
	}
	// Bookkeep the new commit's columns in its ring slot, first clearing
	// the bits of the commit that held the slot before.
	slot := uint(seq) & 63
	for _, pos := range p.slotRBits[slot] {
		p.readCols[pos] &^= 1 << slot
	}
	for _, pos := range p.slotWBits[slot] {
		p.writeCols[pos] &^= 1 << slot
	}
	p.slotRBits[slot] = append(p.slotRBits[slot][:0], p.rBits...)
	p.slotWBits[slot] = append(p.slotWBits[slot][:0], p.wBits...)
	for _, pos := range p.rBits {
		p.readCols[pos] |= 1 << slot
	}
	for _, pos := range p.wBits {
		p.writeCols[pos] |= 1 << slot
	}
	p.stats.Commits++
	return Verdict{Token: r.Token, OK: true, Seq: seq, ModelNanos: nanos}
}
