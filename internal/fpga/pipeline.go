package fpga

import (
	"math/bits"

	"rococotm/internal/bitmat"
	"rococotm/internal/core"
	"rococotm/internal/sig"
)

// Pipeline is the serial behavioral model of the Detector/Manager dataflow:
// the window, the per-slot signature bookkeeping and the ROCoCo validation,
// with no queues or goroutines around it. Engine runs it under its lock,
// driven by whichever committer holds the lock.
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

	// Wide-window (W > 64) backend: the word-packed window and the columnar
	// occupancy above are capped at 64 slots, so the W=128/256 ablation runs
	// on the bitmat-backed BigWindow with per-entry signature probes
	// instead. Exactly one of win and bigWin is non-nil. The history is a
	// ring of W entries, slot-aligned with the window: the window's slot i
	// is history[(hBase+i)%W]; entries own their signatures and commits
	// copy the scratch signatures rs/ws into them in place. fVec/bVec are
	// the adjacency-vector scratch.
	bigWin     *core.BigWindow
	fVec, bVec bitmat.Vec
	history    []entry
	hBase      int // ring index of window slot 0 (the oldest entry)
	hLen       int // live entries; always equals bigWin.Count()
	rs, ws     sig.Sig

	stats Stats
}

// entry is the detector bookkeeping for one committed transaction: exactly
// what the hardware stores — two signatures per transaction (§5.3), so the
// resource bound is known a priori — plus set cardinalities for the
// empty-set fast path.
type entry struct {
	readSig  sig.Sig
	writeSig sig.Sig
	reads    int
	writes   int
	seq      core.Seq
}

// NewPipeline builds a validator for the given (validated, filled)
// configuration.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	p := &Pipeline{
		cfg:    cfg,
		hasher: sig.NewHasher(cfg.Sig, sigSeed),
		k:      cfg.Sig.K,
		rBits:  make([]int32, 0, 64),
		wBits:  make([]int32, 0, 64),
	}
	if cfg.W > 64 {
		p.useProbes()
	} else {
		p.win = core.NewWindow(cfg.W)
		p.readCols = make([]uint64, cfg.Sig.M)
		p.writeCols = make([]uint64, cfg.Sig.M)
	}
	return p, nil
}

// useProbes switches p to the per-entry probe backend: the bitmat window
// and a history of resident signatures, probed entry by entry.
func (p *Pipeline) useProbes() {
	p.win = nil
	p.bigWin = core.NewBigWindow(p.cfg.W)
	p.fVec, p.bVec = bitmat.NewVec(p.cfg.W), bitmat.NewVec(p.cfg.W)
	p.rs, p.ws = sig.New(p.cfg.Sig), sig.New(p.cfg.Sig)
	p.history = make([]entry, p.cfg.W)
	for i := range p.history {
		p.history[i].readSig = sig.New(p.cfg.Sig)
		p.history[i].writeSig = sig.New(p.cfg.Sig)
	}
}

// Config returns the pipeline's (filled) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Hasher returns the signature hasher shared with the CPU side.
func (p *Pipeline) Hasher() *sig.Hasher { return p.hasher }

// Stats returns a copy of the counters.
func (p *Pipeline) Stats() Stats { return p.stats }

// noteBatch records one drain group of n requests taken from a submission
// queue that held occ (the group included) at drain time.
func (p *Pipeline) noteBatch(n, occ int) {
	p.stats.Batches++
	if uint64(n) > p.stats.MaxBatch {
		p.stats.MaxBatch = uint64(n)
	}
	if uint64(occ) > p.stats.QueuePeak {
		p.stats.QueuePeak = uint64(occ)
	}
}

// BaseSeq returns the oldest tracked commit sequence.
func (p *Pipeline) BaseSeq() core.Seq {
	if p.bigWin != nil {
		return p.bigWin.BaseSeq()
	}
	return p.win.BaseSeq()
}

// NextSeq returns the sequence the next commit will receive.
func (p *Pipeline) NextSeq() core.Seq {
	if p.bigWin != nil {
		return p.bigWin.NextSeq()
	}
	return p.win.NextSeq()
}

// ResetAt discards all window state and rebases sequence numbering at next
// — the crash/recovery semantics: whatever the validator knew about the
// last W commits is gone, so transactions with snapshots older than next
// will abort with a window verdict until they refresh.
func (p *Pipeline) ResetAt(next core.Seq) {
	if p.bigWin != nil {
		p.bigWin.ResetAt(next)
	} else {
		p.win.ResetAt(next)
	}
	p.hBase, p.hLen = 0, 0
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

	if p.bigWin != nil {
		return p.processBig(r, nanos)
	}

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

// queryAny reports whether any request address (k bit positions each in
// bitsOf) may be a member of s — the per-entry form of the columnar
// compare, for windows wider than the 64-slot column words.
func queryAny(s sig.Sig, bitsOf []int32, k int) bool {
	for off := 0; off+k <= len(bitsOf); off += k {
		if s.QueryBits(bitsOf[off : off+k]) {
			return true
		}
	}
	return false
}

// processBig is the W > 64 validation path: the same detector/manager
// dataflow as Process, but with the reachability matrix in bitmat form and
// the f/b vectors derived by probing each history entry's signatures
// per-address. It models the wider-BRAM ablation, not the shipped
// hardware, so it trades the columnar compare's constant factor for
// arbitrary W.
func (p *Pipeline) processBig(r Request, nanos uint64) Verdict {
	// Window-overflow rule (§4.2), identical to the fast path.
	base := p.bigWin.BaseSeq()
	validSeq := core.Seq(r.ValidTS)
	if validSeq < base {
		p.stats.WindowAborts++
		return Verdict{Token: r.Token, Reason: ReasonWindow, ModelNanos: nanos}
	}

	p.rs.Reset()
	p.ws.Reset()
	p.rBits = p.hasher.AppendBits(p.rBits[:0], r.ReadAddrs)
	p.wBits = p.hasher.AppendBits(p.wBits[:0], r.WriteAddrs)
	p.rs.InsertBits(p.rBits)
	p.ws.InsertBits(p.wBits)

	p.fVec.Clear()
	p.bVec.Clear()
	n := p.bigWin.Count()
	for i := 0; i < n; i++ {
		ent := &p.history[(p.hBase+i)%p.cfg.W]
		seen := ent.seq < validSeq
		if ent.writes > 0 && queryAny(ent.writeSig, p.rBits, p.k) {
			if seen {
				p.bVec.Set(i, true) // RAW: read saw the committed write
			} else {
				p.fVec.Set(i, true) // stale read orders us before t_i
			}
		}
		if len(r.WriteAddrs) > 0 {
			if ent.reads > 0 && queryAny(ent.readSig, p.wBits, p.k) {
				p.bVec.Set(i, true) // WAR
			}
			if ent.writes > 0 && queryAny(ent.writeSig, p.wBits, p.k) {
				p.bVec.Set(i, true) // WAW
			}
		}
	}

	seq, ok := p.bigWin.Insert(p.fVec, p.bVec)
	if !ok {
		p.stats.CycleAborts++
		return Verdict{Token: r.Token, Reason: ReasonCycle, ModelNanos: nanos}
	}
	var ent *entry
	if p.hLen == p.cfg.W {
		ent = &p.history[p.hBase]
		p.hBase = (p.hBase + 1) % p.cfg.W
	} else {
		ent = &p.history[(p.hBase+p.hLen)%p.cfg.W]
		p.hLen++
	}
	copy(ent.readSig.Words(), p.rs.Words())
	copy(ent.writeSig.Words(), p.ws.Words())
	ent.reads = len(r.ReadAddrs)
	ent.writes = len(r.WriteAddrs)
	ent.seq = seq
	p.stats.Commits++
	return Verdict{Token: r.Token, OK: true, Seq: seq, ModelNanos: nanos}
}
