package fpga

import (
	"math/rand"
	"testing"

	"rococotm/internal/bitmat"
	"rococotm/internal/core"
	"rococotm/internal/sig"
)

// probePipeline is the per-entry probe backend: the bitmat-backed
// BigWindow, and a ring of W history entries, slot-aligned with the window
// (window slot i is history[(hBase+i)%W]), whose signatures every request
// probes entry by entry. It is the oracle Pipeline.Process is checked
// against.
type probePipeline struct {
	cfg        Config
	hasher     *sig.Hasher
	bigWin     *core.BigWindow
	fVec, bVec bitmat.Vec
	history    []entry
	hBase      int // ring index of window slot 0 (the oldest entry)
	hLen       int // live entries; always equals bigWin.Count()
	rs, ws     sig.Sig
}

// newProbePipeline builds the probe backend for a filled configuration.
func newProbePipeline(cfg Config) *probePipeline {
	p := &probePipeline{
		cfg:    cfg,
		hasher: sig.NewHasher(cfg.Sig, sigSeed),
		bigWin: core.NewBigWindow(cfg.w),
		fVec:   bitmat.NewVec(cfg.w),
		bVec:   bitmat.NewVec(cfg.w),
		rs:     sig.New(cfg.Sig),
		ws:     sig.New(cfg.Sig),
	}
	p.history = make([]entry, cfg.w)
	for i := range p.history {
		p.history[i].readSig = sig.New(cfg.Sig)
		p.history[i].writeSig = sig.New(cfg.Sig)
	}
	return p
}

func (p *probePipeline) ResetAt(next core.Seq) {
	p.bigWin.ResetAt(next)
	p.hBase, p.hLen = 0, 0
}

// queryAny reports whether any of addrs may be a member of s.
func (p *probePipeline) queryAny(s sig.Sig, addrs []uint64) bool {
	for _, a := range addrs {
		if s.Query(p.hasher, a) {
			return true
		}
	}
	return false
}

// Process is Pipeline.Process with the f/b vectors derived by probing each
// history entry's signatures per address.
func (p *probePipeline) Process(r Request) Verdict {
	nanos := cyclesToNanos(requestCycles(len(r.ReadAddrs), len(r.WriteAddrs)))
	validSeq := core.Seq(r.ValidTS)
	if validSeq < p.bigWin.BaseSeq() {
		return Verdict{Token: r.Token, Reason: ReasonWindow, ModelNanos: nanos}
	}

	p.rs.Reset()
	p.ws.Reset()
	for _, a := range r.ReadAddrs {
		p.rs.Insert(p.hasher, a)
	}
	for _, a := range r.WriteAddrs {
		p.ws.Insert(p.hasher, a)
	}

	p.fVec.Clear()
	p.bVec.Clear()
	n := p.bigWin.Count()
	for i := 0; i < n; i++ {
		ent := &p.history[(p.hBase+i)%p.cfg.w]
		seen := ent.seq < validSeq
		if ent.writes > 0 && p.queryAny(ent.writeSig, r.ReadAddrs) {
			if seen {
				p.bVec.Set(i, true) // RAW: read saw the committed write
			} else {
				p.fVec.Set(i, true) // stale read orders us before t_i
			}
		}
		if len(r.WriteAddrs) > 0 {
			if ent.reads > 0 && p.queryAny(ent.readSig, r.WriteAddrs) {
				p.bVec.Set(i, true) // WAR
			}
			if ent.writes > 0 && p.queryAny(ent.writeSig, r.WriteAddrs) {
				p.bVec.Set(i, true) // WAW
			}
		}
	}

	seq, ok := p.bigWin.Insert(p.fVec, p.bVec)
	if !ok {
		return Verdict{Token: r.Token, Reason: ReasonCycle, ModelNanos: nanos}
	}
	var ent *entry
	if p.hLen == p.cfg.w {
		ent = &p.history[p.hBase]
		p.hBase = (p.hBase + 1) % p.cfg.w
	} else {
		ent = &p.history[(p.hBase+p.hLen)%p.cfg.w]
		p.hLen++
	}
	copy(ent.readSig.Words(), p.rs.Words())
	copy(ent.writeSig.Words(), p.ws.Words())
	ent.reads = len(r.ReadAddrs)
	ent.writes = len(r.WriteAddrs)
	ent.seq = seq
	return Verdict{Token: r.Token, OK: true, Seq: seq, ModelNanos: nanos}
}

// TestRingPathMatchesEntryProbes runs one random request stream — overlapping
// footprints over a few dozen addresses, snapshots from current to past the
// window, snapshots ahead of the window, and a ResetAt at a base that is not
// a multiple of 64 — through the columnar ring path and through the
// per-entry probe backend at the same W. The verdicts must be identical
// request for request.
func TestRingPathMatchesEntryProbes(t *testing.T) {
	for _, w := range []int{1, 7, 64} {
		ring, err := NewPipeline(Config{w: w})
		if err != nil {
			t.Fatal(err)
		}
		probe := newProbePipeline(ring.Config())

		rng := rand.New(rand.NewSource(int64(w)))
		addrs := func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(rng.Intn(40))
			}
			return out
		}
		reasons := map[string]int{}
		for i := 0; i < 6000; i++ {
			if i == 3000 {
				ring.ResetAt(1000037)
				probe.ResetAt(1000037)
			}
			ts := uint64(ring.NextSeq())
			switch lag := uint64(rng.Intn(w + 6)); {
			case rng.Intn(50) == 0:
				ts += 3 // a snapshot ahead of every commit
			case lag <= ts:
				ts -= lag
			}
			r := Request{Token: uint64(i), ValidTS: ts,
				ReadAddrs: addrs(rng.Intn(5)), WriteAddrs: addrs(rng.Intn(4))}
			got, want := ring.Process(r), probe.Process(r)
			if got != want {
				t.Fatalf("W=%d request %d (%+v): ring %+v, probes %+v", w, i, r, got, want)
			}
			reasons[got.Reason]++
		}
		if reasons[""] == 0 || reasons[ReasonWindow] == 0 || (w > 1 && reasons[ReasonCycle] == 0) {
			t.Fatalf("W=%d: stream did not exercise every verdict: %v", w, reasons)
		}
	}
}
