package sig

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{M: 512, K: 4}, true},
		{Config{M: 1024, K: 4}, true},
		{Config{M: 256, K: 2}, true},
		{Config{M: 64, K: 1}, true},
		{Config{M: 0, K: 4}, false},
		{Config{M: 512, K: 0}, false},
		{Config{M: 100, K: 4}, false},  // not multiple of 64
		{Config{M: 512, K: 3}, false},  // not divisible
		{Config{M: 576, K: 3}, false},  // partition 192 not power of two
		{Config{M: -512, K: 4}, false}, // negative
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

func TestNoFalseNegatives(t *testing.T) {
	h := NewHasher(Default512, 42)
	s := New(Default512)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 200)
	for i := range addrs {
		addrs[i] = rng.Uint64()
		s.Insert(h, addrs[i])
	}
	for _, a := range addrs {
		if !s.Query(h, a) {
			t.Fatalf("false negative for %#x", a)
		}
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	h := NewHasher(Default512, 7)
	f := func(addrs []uint64, probe uint64) bool {
		s := New(Default512)
		for _, a := range addrs {
			s.Insert(h, a)
		}
		for _, a := range addrs {
			if !s.Query(h, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySignature(t *testing.T) {
	h := NewHasher(Default512, 3)
	s := New(Default512)
	if !s.IsZero() {
		t.Fatal("fresh signature not zero")
	}
	if s.Query(h, 12345) {
		t.Fatal("empty signature claims membership")
	}
	s.Insert(h, 1)
	if s.IsZero() {
		t.Fatal("signature zero after insert")
	}
	s.Reset()
	if !s.IsZero() {
		t.Fatal("signature not zero after Reset")
	}
}

func TestInsertSetsKBits(t *testing.T) {
	for _, cfg := range []Config{Default512, {M: 1024, K: 4}, {M: 256, K: 2}} {
		h := NewHasher(cfg, 11)
		s := New(cfg)
		s.Insert(h, 0xdeadbeef)
		if got := s.OnesCount(); got != cfg.K {
			t.Errorf("cfg %+v: OnesCount after one insert = %d, want %d", cfg, got, cfg.K)
		}
		// One bit per partition.
		pb := cfg.PartitionBits()
		var buf [16]int
		for i, bit := range h.Indices(0xdeadbeef, buf[:]) {
			if bit < i*pb || bit >= (i+1)*pb {
				t.Errorf("cfg %+v: index %d outside partition %d", cfg, bit, i)
			}
		}
	}
}

func TestUnionSupersets(t *testing.T) {
	h := NewHasher(Default512, 9)
	a, b := New(Default512), New(Default512)
	rng := rand.New(rand.NewSource(2))
	var addrs []uint64
	for i := 0; i < 16; i++ {
		x := rng.Uint64()
		addrs = append(addrs, x)
		if i%2 == 0 {
			a.Insert(h, x)
		} else {
			b.Insert(h, x)
		}
	}
	u := a.Clone()
	u.Union(b)
	for _, x := range addrs {
		if !u.Query(h, x) {
			t.Fatalf("union lost %#x", x)
		}
	}
}

func TestIntersectsExactOnDisjointBits(t *testing.T) {
	// Construct signatures with hand-picked bit patterns. Partitions for
	// Default512 are 128 bits = 2 words each.
	a, b := New(Default512), New(Default512)
	a.Words()[0] = 1
	b.Words()[7] = 1 << 63
	if a.Intersects(b) || a.AnyCommonBit(b) {
		t.Fatal("disjoint bit patterns reported intersecting")
	}
	b.Words()[0] = 1
	if !a.AnyCommonBit(b) {
		t.Fatal("shared bit not reported by AnyCommonBit")
	}
	// One common partition is not enough for the partitioned test.
	if a.Intersects(b) {
		t.Fatal("single-partition overlap should not pass the partitioned test")
	}
	// A common bit in every partition passes.
	for p := 0; p < 4; p++ {
		a.Words()[2*p] |= 2
		b.Words()[2*p] |= 2
	}
	if !a.Intersects(b) {
		t.Fatal("per-partition overlap not reported")
	}
}

func TestIntersectsIsSound(t *testing.T) {
	// If the true sets overlap, Intersects must be true (no false
	// negatives on overlap).
	h := NewHasher(Default512, 21)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		a, b := New(Default512), New(Default512)
		shared := rng.Uint64()
		a.Insert(h, shared)
		b.Insert(h, shared)
		for i := 0; i < 7; i++ {
			a.Insert(h, rng.Uint64())
			b.Insert(h, rng.Uint64())
		}
		if !a.Intersects(b) {
			t.Fatalf("trial %d: overlapping sets reported disjoint", trial)
		}
	}
}

func TestDeterministicAcrossHashers(t *testing.T) {
	// CPU side and simulated FPGA side build separate hashers from the same
	// seed; they must agree bit-for-bit.
	h1 := NewHasher(Default512, 1234)
	h2 := NewHasher(Default512, 1234)
	s1, s2 := New(Default512), New(Default512)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		x := rng.Uint64()
		s1.Insert(h1, x)
		s2.Insert(h2, x)
	}
	if !s1.Equal(s2) {
		t.Fatal("same seed produced different signatures")
	}
	h3 := NewHasher(Default512, 1235)
	s3 := New(Default512)
	s3.Insert(h3, 99)
	s4 := New(Default512)
	s4.Insert(h1, 99)
	if s3.Equal(s4) {
		t.Fatal("different seeds produced identical single-insert signatures (suspicious)")
	}
}

// measureQueryFP empirically measures the query false-positive rate.
func measureQueryFP(cfg Config, n, probes int, seed int64) float64 {
	h := NewHasher(cfg, uint64(seed))
	rng := rand.New(rand.NewSource(seed))
	s := New(cfg)
	members := map[uint64]bool{}
	for len(members) < n {
		x := rng.Uint64()
		if !members[x] {
			members[x] = true
			s.Insert(h, x)
		}
	}
	fp := 0
	for i := 0; i < probes; i++ {
		x := rng.Uint64()
		if members[x] {
			continue
		}
		if s.Query(h, x) {
			fp++
		}
	}
	return float64(fp) / float64(probes)
}

func TestQueryFPModelMatchesMeasurement(t *testing.T) {
	for _, n := range []int{8, 32, 64} {
		model := QueryFPRate(Default512, n)
		var sum float64
		const reps = 8
		for r := 0; r < reps; r++ {
			sum += measureQueryFP(Default512, n, 4000, int64(100+r))
		}
		meas := sum / reps
		// Allow generous tolerance: absolute 0.02 or 50% relative.
		if diff := math.Abs(model - meas); diff > 0.02 && diff > 0.5*model {
			t.Errorf("n=%d: model %.4f vs measured %.4f", n, model, meas)
		}
	}
}

func measureIntersectFP(cfg Config, na, nb, trials int, seed int64) float64 {
	h := NewHasher(cfg, uint64(seed))
	rng := rand.New(rand.NewSource(seed))
	fp := 0
	for i := 0; i < trials; i++ {
		a, b := New(cfg), New(cfg)
		seen := map[uint64]bool{}
		for j := 0; j < na; j++ {
			x := rng.Uint64()
			seen[x] = true
			a.Insert(h, x)
		}
		for j := 0; j < nb; {
			x := rng.Uint64()
			if seen[x] {
				continue
			}
			b.Insert(h, x)
			j++
		}
		if a.Intersects(b) {
			fp++
		}
	}
	return float64(fp) / float64(trials)
}

func TestIntersectFPModelMatchesMeasurement(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		model := IntersectFPRate(Default512, n, n)
		meas := measureIntersectFP(Default512, n, n, 3000, 55)
		if diff := math.Abs(model - meas); diff > 0.04 && diff > 0.5*model {
			t.Errorf("n=%d: model %.4f vs measured %.4f", n, model, meas)
		}
	}
}

func TestIntersectFPJustifies8AddressRule(t *testing.T) {
	// The paper limits intersections to signatures with ≤ 8 elements
	// because false set-overlap rises sharply beyond that. Check the model
	// exhibits that shape for the shipped geometry.
	at8 := IntersectFPRate(Default512, 8, 8)
	at32 := IntersectFPRate(Default512, 32, 32)
	at64 := IntersectFPRate(Default512, 64, 64)
	if !(at8 < at32 && at32 < at64) {
		t.Fatalf("intersection FP not increasing: %g %g %g", at8, at32, at64)
	}
	if at8 > 0.15 {
		t.Fatalf("8-element intersection FP too high for the design point: %g", at8)
	}
	if at64 < 0.5 {
		t.Fatalf("64-element intersection FP unexpectedly low: %g", at64)
	}
}

func TestBiggerSignatureLowersFP(t *testing.T) {
	small := QueryFPRate(Config{M: 256, K: 2}, 32)
	def := QueryFPRate(Default512, 32)
	big := QueryFPRate(Config{M: 1024, K: 4}, 32)
	if !(big < def && def < small) {
		t.Fatalf("FP not monotone in m: 256→%g 512→%g 1024→%g", small, def, big)
	}
}

func TestFromWordsAliases(t *testing.T) {
	w := make([]uint64, Default512.Words())
	s := FromWords(Default512, w)
	w[0] = 0xff
	if s.IsZero() {
		t.Fatal("FromWords did not alias")
	}
}

func TestFromWordsBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromWords with wrong length did not panic")
		}
	}()
	FromWords(Default512, make([]uint64, 3))
}

func TestAnyCommonBitVsIntersects(t *testing.T) {
	// AnyCommonBit is strictly more conservative: Intersects ⇒ AnyCommonBit.
	h := NewHasher(Default512, 77)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		a, b := New(Default512), New(Default512)
		for i := 0; i < 1+rng.Intn(10); i++ {
			a.Insert(h, rng.Uint64())
		}
		for i := 0; i < 1+rng.Intn(10); i++ {
			b.Insert(h, rng.Uint64())
		}
		if a.Intersects(b) && !a.AnyCommonBit(b) {
			t.Fatal("Intersects true but AnyCommonBit false")
		}
	}
}

func BenchmarkInsert512(b *testing.B) {
	h := NewHasher(Default512, 1)
	s := New(Default512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Insert(h, uint64(i)*0x9e3779b9)
	}
}

func BenchmarkQuery512(b *testing.B) {
	h := NewHasher(Default512, 1)
	s := New(Default512)
	for i := 0; i < 8; i++ {
		s.Insert(h, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(h, uint64(i))
	}
}

func BenchmarkIntersect512(b *testing.B) {
	h := NewHasher(Default512, 1)
	x, y := New(Default512), New(Default512)
	for i := 0; i < 8; i++ {
		x.Insert(h, uint64(i))
		y.Insert(h, uint64(i+100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Intersects(y)
	}
}

func TestSegLevel(t *testing.T) {
	cases := []struct {
		lo, hi   uint64
		maxLevel int
		want     int
	}{
		{0, 0, 8, 0}, // degenerate empty range
		{5, 5, 8, 0}, // degenerate empty range
		{7, 3, 8, 0}, // degenerate inverted range
		{0, 1, 8, 0}, // single element
		{0, 2, 8, 1}, // aligned pair
		{0, 3, 8, 1}, // span 3: largest power of two that fits is 2
		{0, 4, 8, 2},
		{0, 256, 8, 8},    // capped by maxLevel
		{0, 1024, 8, 8},   // capped by maxLevel
		{0, 1024, 12, 10}, // capped by span
		{1, 16, 8, 0},     // odd lo: only single steps
		{2, 16, 8, 1},     // lo divisible by 2 only
		{4, 16, 8, 2},
		{8, 16, 8, 3},
		{8, 12, 8, 2}, // alignment allows 8 but span allows only 4
		{6, 8, 8, 1},
		{0, 5, 0, 0}, // maxLevel 0 forces per-commit stepping
	}
	for _, c := range cases {
		if got := SegLevel(c.lo, c.hi, c.maxLevel); got != c.want {
			t.Errorf("SegLevel(%d, %d, %d) = %d, want %d", c.lo, c.hi, c.maxLevel, got, c.want)
		}
	}
}

func TestSegLevelDecomposesExactly(t *testing.T) {
	// Greedy decomposition must tile any range exactly: segments are
	// aligned, within bounds, and sum to the range.
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 2000; iter++ {
		lo := uint64(rng.Intn(1 << 12))
		hi := lo + uint64(rng.Intn(1<<10))
		maxLevel := rng.Intn(10)
		pos, steps := lo, 0
		for pos < hi {
			lvl := SegLevel(pos, hi, maxLevel)
			size := uint64(1) << uint(lvl)
			if pos&(size-1) != 0 {
				t.Fatalf("segment [%d,+%d) not aligned", pos, size)
			}
			if pos+size > hi {
				t.Fatalf("segment [%d,+%d) overruns hi=%d", pos, size, hi)
			}
			pos += size
			if steps++; steps > 1<<12 {
				t.Fatalf("decomposition of [%d,%d) did not terminate", lo, hi)
			}
		}
		if pos != hi {
			t.Fatalf("decomposition of [%d,%d) ended at %d", lo, hi, pos)
		}
	}
}

func TestCopyFrom(t *testing.T) {
	h := NewHasher(Default512, 11)
	src, dst := New(Default512), New(Default512)
	for i := 0; i < 12; i++ {
		src.Insert(h, uint64(i)*31)
	}
	dst.Insert(h, 0xdead) // pre-existing bits must be overwritten, not unioned
	dst.CopyFrom(src)
	sw, dw := src.Words(), dst.Words()
	for i := range sw {
		if sw[i] != dw[i] {
			t.Fatalf("word %d: src %#x dst %#x", i, sw[i], dw[i])
		}
	}
	// CopyFrom must not alias: mutating dst leaves src intact.
	before := append([]uint64(nil), sw...)
	dst.Insert(h, 0xbeefcafe)
	for i, w := range src.Words() {
		if w != before[i] {
			t.Fatal("CopyFrom aliased the source words")
		}
	}
}

func TestQueryIdxMatchesQuery(t *testing.T) {
	h := NewHasher(Default512, 5)
	s := New(Default512)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 16; i++ {
		s.Insert(h, rng.Uint64())
	}
	var buf [16]int
	for i := 0; i < 4000; i++ {
		a := rng.Uint64()
		if got, want := s.QueryIdx(h.Indices(a, buf[:])), s.Query(h, a); got != want {
			t.Fatalf("QueryIdx(%#x) = %v, Query = %v", a, got, want)
		}
	}
}
