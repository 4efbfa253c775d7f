package core

import (
	"testing"

	"rococotm/internal/bitmat"
)

// FuzzWindowAgainstOracle drives the W≤64 ring window, the generic window
// and an explicit-graph acyclicity oracle with the same fuzzer-chosen
// stream of (f, b) adjacency masks; all three must agree on every
// decision and the ring window's matrix must stay the exact transitive
// closure. The input picks the window size W ∈ [1, 64] (byte 0) and an
// optional ResetAt (byte 1: the step, 0 for none; byte 2: the base, so a
// rebase can land anywhere mod 64); each later 3-byte step places an
// 8-bit f and b at a fuzzed offset, so long inputs slide the window
// through ring-slot reuse. Run with
// `go test -fuzz FuzzWindowAgainstOracle ./internal/core`.
func FuzzWindowAgainstOracle(f *testing.F) {
	f.Add([]byte{7, 0, 0, 0, 0x00, 0x00, 0, 0x01, 0x00, 0, 0x00, 0x01, 0, 0x03, 0x01})
	f.Add([]byte{63, 3, 37, 5, 0xff, 0x00, 9, 0x0f, 0xf0, 2, 0x21, 0x12})
	f.Add([]byte{0, 1, 200, 1, 1, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		W := 1 + int(data[0])%64
		resetStep, resetBase := int(data[1]), Seq(data[2])*257
		fast := NewWindow(W)
		big := NewBigWindow(W)
		o := &oracle{}
		live := 0 // commits not yet evicted, tracked for the oracle

		for i, step := 3, 1; i+2 < len(data); i, step = i+3, step+1 {
			if step == resetStep {
				fast.ResetAt(resetBase)
				big.ResetAt(resetBase)
				o, live = &oracle{}, 0
			}
			n := fast.Count()
			mask := uint64(1)<<uint(n) - 1
			shift := uint(data[i]) % 64
			fm := uint64(data[i+1]) << shift & mask
			bm := uint64(data[i+2]) << shift & mask &^ fm // disjoint edges, like real detectors

			var fs, bs []int
			for j := 0; j < n; j++ {
				if fm&(1<<uint(j)) != 0 {
					fs = append(fs, o.n-live+j)
				}
				if bm&(1<<uint(j)) != 0 {
					bs = append(bs, o.n-live+j)
				}
			}
			// The oracle tracks the full graph; window decisions are only
			// comparable while nothing relevant was evicted, so restrict
			// the oracle check to the pre-slide regime.
			var want, haveOracle bool
			if o.n < W {
				want = o.wouldBeAcyclicIdx(fs, bs)
				haveOracle = true
			}
			s1, ok1 := fast.Insert(fm, bm)
			s2, ok2 := insertBigMask(big, fm, bm)
			if ok1 != ok2 || (ok1 && s1 != s2) {
				t.Fatalf("fast (%d,%v) != big (%d,%v)", s1, ok1, s2, ok2)
			}
			if haveOracle && ok1 != want {
				t.Fatalf("window=%v oracle=%v (f=%b b=%b)", ok1, want, fm, bm)
			}
			if ok1 {
				o.commitIdx(fs, bs)
				if live < W {
					live++
				}
				if !fast.Matrix().Equal(big.Matrix()) {
					t.Fatal("matrices diverged")
				}
			}
		}
	})
}

// wouldBeAcyclicIdx and commitIdx mirror the oracle helpers with explicit
// vertex indices (the fuzz harness needs global numbering).
func (o *oracle) wouldBeAcyclicIdx(f, b []int) bool {
	n := o.n + 1
	m := bitmat.NewMat(n)
	for _, e := range o.edges {
		m.Set(e[0], e[1], true)
	}
	v := n - 1
	for _, i := range f {
		m.Set(v, i, true)
	}
	for _, i := range b {
		m.Set(i, v, true)
	}
	return !m.HasCycle()
}

func (o *oracle) commitIdx(f, b []int) {
	v := o.n
	o.n++
	for _, i := range f {
		o.edges = append(o.edges, [2]int{v, i})
	}
	for _, i := range b {
		o.edges = append(o.edges, [2]int{i, v})
	}
}

func insertBigMask(w *BigWindow, f, b uint64) (Seq, bool) {
	fv := bitmat.NewVec(w.W())
	bv := bitmat.NewVec(w.W())
	for i := 0; i < w.W(); i++ {
		if f&(1<<uint(i)) != 0 {
			fv.Set(i, true)
		}
		if b&(1<<uint(i)) != 0 {
			bv.Set(i, true)
		}
	}
	return w.Insert(fv, bv)
}
