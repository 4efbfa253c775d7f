package fpga

import (
	"errors"

	"rococotm/internal/core"
	"rococotm/internal/sig"
)

// RTL is a cycle-level model of the Figure 5 pipeline: requests stream
// their addresses through the hash and detector stages in cache-line beats
// while older requests are still in flight, and the manager retires one
// transaction per cycle. It exists to substantiate the paper's §4.2 claim
// that validation pipelines with an initiation interval of one beat
// *without sacrificing the atomicity of validation*: when the manager
// commits a transaction, every transaction still in the detector reacts
// within the same cycle ("broadcast of the t_{k+1} commit" in Figure 5),
// folding the new commit into its dependency vectors before its own
// verdict.
//
// It is a standalone model, not an engine backend. rtl_test.go verifies it
// verdict-for-verdict against the serial behavioral Engine, and its cycle
// counter demonstrates the pipelining: N b-beat validations retire in
// ≈ N·b + depth cycles, not N·(b + depth).
type RTL struct {
	cfg    Config
	hasher *sig.Hasher
	win    *core.Window
	hist   []entry // committed bookkeeping, slot-aligned with win

	inflight []*rtlTxn // pipeline order: inflight[0] is the oldest
	cycles   uint64
	retired  uint64
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

// rtlTxn is one request in flight.
type rtlTxn struct {
	req       Request
	addrs     []uint64 // reads then writes
	nReads    int
	beatsDone int
	rs, ws    sig.Sig

	// Dependency edges accumulate keyed by commit sequence so that window
	// slides while the transaction is in flight cannot stale them; they
	// are flattened to slot vectors at retirement.
	fSeqs map[core.Seq]bool
	bSeqs map[core.Seq]bool
}

// NewRTL builds a cycle-level pipeline with the same configuration
// semantics as Start.
func NewRTL(cfg Config) *RTL {
	cfg.fill()
	return &RTL{
		cfg:    cfg,
		hasher: sig.NewHasher(cfg.Sig, sigSeed),
		win:    core.NewWindow(cfg.w),
	}
}

// ResetAt discards window state and rebases sequence numbering at seq —
// the same crash/recovery semantics as Pipeline.ResetAt. In-flight
// transactions are flushed with terminal closed verdicts.
func (r *RTL) ResetAt(seq core.Seq) {
	r.Flush()
	r.win.ResetAt(seq)
	r.hist = nil
}

// Flush delivers a terminal ReasonClosed verdict to every in-flight
// transaction and empties the pipeline — the crash path: nothing that
// entered the pipeline is ever silently stranded.
func (r *RTL) Flush() {
	for _, t := range r.inflight {
		t.req.deliver(Verdict{Token: t.req.Token, Reason: ReasonClosed})
	}
	r.inflight = nil
}

// Cycles returns the number of ticks executed.
func (r *RTL) Cycles() uint64 { return r.cycles }

// Retired returns the number of verdicts produced.
func (r *RTL) Retired() uint64 { return r.retired }

// InFlight returns the current pipeline occupancy.
func (r *RTL) InFlight() int { return len(r.inflight) }

// Offer inserts a request into the pipeline. The request must carry a
// buffered Reply channel; its verdict is delivered there when the
// transaction retires.
func (r *RTL) Offer(req Request) error {
	if cap(req.Reply) < 1 {
		return errors.New("fpga: request needs a buffered reply channel")
	}
	t := &rtlTxn{
		req:    req,
		nReads: len(req.ReadAddrs),
		rs:     sig.New(r.cfg.Sig),
		ws:     sig.New(r.cfg.Sig),
		fSeqs:  map[core.Seq]bool{},
		bSeqs:  map[core.Seq]bool{},
	}
	t.addrs = append(t.addrs, req.ReadAddrs...)
	t.addrs = append(t.addrs, req.WriteAddrs...)
	r.inflight = append(r.inflight, t)
	return nil
}

// beats returns how many address beats the transaction needs (minimum 1,
// like the behavioral latency model).
func (t *rtlTxn) beats(perBeat int) int {
	n := (t.nReads+perBeat-1)/perBeat + (len(t.addrs)-t.nReads+perBeat-1)/perBeat
	if n == 0 {
		n = 1
	}
	return n
}

// beatRange returns the address span and kind of beat k.
func (t *rtlTxn) beatRange(k, perBeat int) (lo, hi int, isRead bool) {
	readBeats := (t.nReads + perBeat - 1) / perBeat
	if k < readBeats {
		lo = k * perBeat
		hi = minInt(lo+perBeat, t.nReads)
		return lo, hi, true
	}
	lo = t.nReads + (k-readBeats)*perBeat
	hi = minInt(lo+perBeat, len(t.addrs))
	return lo, hi, false
}

// Tick advances the pipeline one clock cycle: every in-flight transaction
// with beats remaining streams one beat through the hash and detector
// stages (distinct transactions occupy distinct pipeline slots, so they
// advance concurrently), and the manager retires the oldest transaction
// whose streaming is complete.
func (r *RTL) Tick() {
	r.cycles++
	perBeat := addrsPerBeat

	// Detector stage: one beat per in-flight transaction per cycle.
	for _, t := range r.inflight {
		if t.beatsDone >= t.beats(perBeat) {
			continue
		}
		r.processBeat(t, t.beatsDone, perBeat)
		t.beatsDone++
	}

	// Manager stage: retire the head if it has streamed completely.
	if len(r.inflight) == 0 {
		return
	}
	head := r.inflight[0]
	if head.beatsDone < head.beats(perBeat) {
		return
	}
	r.inflight = r.inflight[1:]
	r.retire(head)
}

// processBeat runs beat k of t through hash + detector: the beat's
// addresses fold into t's signatures and are probed against every
// committed history entry (W comparators in parallel in hardware).
func (r *RTL) processBeat(t *rtlTxn, k, perBeat int) {
	lo, hi, isRead := t.beatRange(k, perBeat)
	if lo >= hi {
		return
	}
	for _, a := range t.addrs[lo:hi] {
		if isRead {
			t.rs.Insert(r.hasher, a)
		} else {
			t.ws.Insert(r.hasher, a)
		}
	}
	for i := range r.hist {
		r.probe(t, &r.hist[i], t.addrs[lo:hi], isRead)
	}
}

// probe compares a span of t's addresses of one kind against one committed
// entry and records the induced edges by sequence number.
func (r *RTL) probe(t *rtlTxn, h *entry, addrs []uint64, isRead bool) {
	seen := h.seq < core.Seq(t.req.ValidTS)
	for _, a := range addrs {
		if isRead {
			if h.writes > 0 && h.writeSig.Query(r.hasher, a) {
				if seen {
					t.bSeqs[h.seq] = true
				} else {
					t.fSeqs[h.seq] = true
				}
			}
		} else {
			if (h.reads > 0 && h.readSig.Query(r.hasher, a)) ||
				(h.writes > 0 && h.writeSig.Query(r.hasher, a)) {
				t.bSeqs[h.seq] = true
			}
		}
	}
}

// retire runs the manager for the pipeline head: flatten the accumulated
// sequence-keyed edges to window-slot vectors, run the ROCoCo validation,
// update the window and history on commit, and broadcast the commit to
// every transaction still in flight — which re-probes its already-streamed
// prefix against the new entry within this cycle (the speculative
// detection requirement of §4.2; its future beats see the entry through
// the normal history path).
func (r *RTL) retire(t *rtlTxn) {
	v := Verdict{Token: t.req.Token}
	cycles := requestCycles(t.nReads, len(t.addrs)-t.nReads)
	v.ModelNanos = cyclesToNanos(cycles)

	if core.Seq(t.req.ValidTS) < r.win.BaseSeq() {
		v.Reason = ReasonWindow
		t.req.deliver(v)
		r.retired++
		return
	}
	var f, b uint64
	for seq := range t.fSeqs {
		if slot, ok := r.win.Slot(seq); ok {
			f |= 1 << uint(slot)
		}
	}
	for seq := range t.bSeqs {
		if slot, ok := r.win.Slot(seq); ok {
			b |= 1 << uint(slot)
		}
	}
	seq, ok := r.win.Insert(f, b)
	if !ok {
		v.Reason = ReasonCycle
		t.req.deliver(v)
		r.retired++
		return
	}
	v.OK = true
	v.Seq = seq
	ent := entry{
		readSig: t.rs, writeSig: t.ws,
		reads: t.nReads, writes: len(t.addrs) - t.nReads,
		seq: seq,
	}
	if len(r.hist) == r.cfg.w {
		copy(r.hist, r.hist[1:])
		r.hist[len(r.hist)-1] = ent
	} else {
		r.hist = append(r.hist, ent)
	}
	// Commit broadcast: followers fold the new entry over their processed
	// prefix in this cycle.
	perBeat := addrsPerBeat
	for _, follower := range r.inflight {
		for k := 0; k < follower.beatsDone; k++ {
			lo, hi, isRead := follower.beatRange(k, perBeat)
			if lo < hi {
				r.probe(follower, &r.hist[len(r.hist)-1], follower.addrs[lo:hi], isRead)
			}
		}
	}
	t.req.deliver(v)
	r.retired++
}

// deliver sends v on the request's Reply channel. A full channel already
// holds the request's verdict, so a duplicate is dropped: at-most-once
// delivery.
func (req *Request) deliver(v Verdict) {
	select {
	case req.Reply <- v:
	default:
	}
}

// Drain ticks until the pipeline is empty and returns the cycle count.
func (r *RTL) Drain() uint64 {
	for len(r.inflight) > 0 {
		r.Tick()
	}
	return r.cycles
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
