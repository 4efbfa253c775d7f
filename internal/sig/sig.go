// Package sig implements the parallel (partitioned) bloom-filter signatures
// ROCoCoTM uses for address-set disambiguation (paper §5.2).
//
// A signature summarizes an unbounded set of 64-bit addresses in m bits
// split into k equal partitions; inserting an address sets one bit per
// partition, chosen by k independent multiply-shift hash functions
// (Dietzfelbinger et al.), the scheme the paper picks because it maps to a
// few AVX instructions on the CPU and to shift-and-mask logic on the FPGA.
// Membership query, set union and set intersection are plain bit operations,
// so the FPGA detector can evaluate them in a single pipeline stage.
//
// The package also carries the analytic false-positivity model (after
// Jeffrey & Steffan, SPAA'11) used to pick m = 512 and the 8-address
// sub-signature rule; it regenerates the curves of Figure 7.
package sig

import (
	"fmt"
	"math"
	"math/bits"
)

// Config selects the geometry of a signature: m total bits in k partitions.
type Config struct {
	M int // total bits; must be a multiple of 64 and of K
	K int // number of partitions (hash functions); must be a power of two ≤ M/64... not required, see Validate
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.M <= 0 || c.K <= 0:
		return fmt.Errorf("sig: non-positive geometry m=%d k=%d", c.M, c.K)
	case c.M%64 != 0:
		return fmt.Errorf("sig: m=%d not a multiple of 64", c.M)
	case c.M%c.K != 0:
		return fmt.Errorf("sig: m=%d not divisible by k=%d", c.M, c.K)
	case (c.M/c.K)&(c.M/c.K-1) != 0:
		return fmt.Errorf("sig: partition size %d not a power of two", c.M/c.K)
	case (c.M/c.K)%64 != 0:
		return fmt.Errorf("sig: partition size %d not a multiple of 64", c.M/c.K)
	}
	return nil
}

// Words returns the number of 64-bit words backing a signature.
func (c Config) Words() int { return c.M / 64 }

// PartitionBits returns the number of bits per partition.
func (c Config) PartitionBits() int { return c.M / c.K }

// Default512 is the geometry ROCoCoTM ships with: one 512-bit cacheline,
// four partitions of 128 bits (paper §5.2).
var Default512 = Config{M: 512, K: 4}

// Hasher computes the k partition indices of an address with the
// multiply-shift scheme: ((a*x + b) >> (64-log2(m/k))). One (a, b) pair per
// partition; a must be odd for 2-universality.
type Hasher struct {
	cfg   Config
	shift uint
	pb    int // cached cfg.PartitionBits(); Indices/Insert/Query are hot
	a     []uint64
	b     []uint64
}

// NewHasher returns a Hasher for cfg with multipliers derived
// deterministically from seed (so CPU and simulated-FPGA sides agree).
func NewHasher(cfg Config, seed uint64) *Hasher {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hasher{
		cfg:   cfg,
		shift: uint(64 - bits.TrailingZeros(uint(cfg.PartitionBits()))),
		pb:    cfg.PartitionBits(),
		a:     make([]uint64, cfg.K),
		b:     make([]uint64, cfg.K),
	}
	s := seed
	next := func() uint64 {
		// splitmix64: deterministic, well-mixed stream.
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < cfg.K; i++ {
		h.a[i] = next() | 1 // odd multiplier
		h.b[i] = next()
	}
	return h
}

// Config returns the geometry the hasher was built for.
func (h *Hasher) Config() Config { return h.cfg }

// Indices writes the k bit positions (relative to the whole m-bit
// signature) for addr into out, which must have length ≥ k, and returns
// out[:k].
func (h *Hasher) Indices(addr uint64, out []int) []int {
	base := 0
	for i := 0; i < len(h.a); i++ {
		idx := int((h.a[i]*addr + h.b[i]) >> h.shift)
		out[i] = base + idx
		base += h.pb
	}
	return out[:len(h.a)]
}

// AppendBits appends the k bit positions of every address in addrs to out
// and returns the extended slice (k*len(addrs) entries, grouped per
// address). It is the batch form of Indices for hot paths that probe the
// same addresses against many signatures at once: hash once, then test the
// positions (the validator's columnar compare, internal/fpga).
func (h *Hasher) AppendBits(out []int32, addrs []uint64) []int32 {
	for _, addr := range addrs {
		base := int32(0)
		for i := 0; i < len(h.a); i++ {
			out = append(out, base+int32((h.a[i]*addr+h.b[i])>>h.shift))
			base += int32(h.pb)
		}
	}
	return out
}

// Sig is one bloom-filter signature. The zero value is not usable;
// construct with New or Hasher-compatible geometry.
type Sig struct {
	pw int // 64-bit words per partition
	w  []uint64
}

// New returns an empty signature for cfg.
func New(cfg Config) Sig {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return Sig{pw: cfg.PartitionBits() / 64, w: make([]uint64, cfg.Words())}
}

// Clone returns a deep copy.
func (s Sig) Clone() Sig {
	c := Sig{pw: s.pw, w: make([]uint64, len(s.w))}
	copy(c.w, s.w)
	return c
}

// Reset clears every bit.
func (s Sig) Reset() {
	for i := range s.w {
		s.w[i] = 0
	}
}

// IsZero reports whether no bit is set.
func (s Sig) IsZero() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (s Sig) OnesCount() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Insert adds addr to the signature.
//
//tm:hotpath
func (s Sig) Insert(h *Hasher, addr uint64) {
	base := 0
	for i := 0; i < len(h.a); i++ {
		bit := base + int((h.a[i]*addr+h.b[i])>>h.shift)
		s.w[bit>>6] |= 1 << uint(bit&63)
		base += h.pb
	}
}

// Query reports whether addr may be in the set (false positives possible,
// false negatives impossible). The hash for partition i+1 is only computed
// if partition i hits, which makes the common miss cheap.
//
//tm:hotpath
func (s Sig) Query(h *Hasher, addr uint64) bool {
	base := 0
	for i := 0; i < len(h.a); i++ {
		bit := base + int((h.a[i]*addr+h.b[i])>>h.shift)
		if s.w[bit>>6]&(1<<uint(bit&63)) == 0 {
			return false
		}
		base += h.pb
	}
	return true
}

// QueryIdx reports whether the address whose positions are idx, as
// returned by Hasher.Indices, may be in the set. It is Query with the
// hashing hoisted out.
func (s Sig) QueryIdx(idx []int) bool {
	for _, bit := range idx {
		if s.w[bit>>6]&(1<<uint(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// CopyFrom overwrites s with o's bits (geometries must match). It is the
// allocation-free counterpart of Clone for recycled scratch signatures.
//
//tm:hotpath
func (s Sig) CopyFrom(o Sig) {
	s.sameLen(o)
	copy(s.w, o.w)
}

// Union sets s = s ∪ o.
//
//tm:hotpath
func (s Sig) Union(o Sig) {
	s.sameLen(o)
	for i := range s.w {
		s.w[i] |= o.w[i]
	}
}

// Intersects reports whether the signatures may represent overlapping sets:
// the bitwise AND restricted to every partition must be non-zero, because
// any element of a true intersection sets one bit of each partition in both
// signatures. A false result is exact (the sets are disjoint); a true
// result may be a false set-overlap. This is the per-partition AND test of
// Jeffrey & Steffan that ROCoCoTM's detector implements.
//
//tm:hotpath
func (s Sig) Intersects(o Sig) bool {
	s.sameLen(o)
	w, ow := s.w, o.w
	if s.pw == 2 { // the common geometry: 128-bit partitions
		for p := 0; p+1 < len(w); p += 2 {
			if w[p]&ow[p]|w[p+1]&ow[p+1] == 0 {
				return false
			}
		}
		return true
	}
	for p := 0; p < len(w); p += s.pw {
		acc := uint64(0)
		for i := p; i < p+s.pw; i++ {
			acc |= w[i] & ow[i]
		}
		if acc == 0 {
			return false
		}
	}
	return true
}

// AnyCommonBit reports whether s and o share any set bit anywhere (the raw
// AND-non-zero test, more conservative than Intersects).
//
//tm:hotpath
func (s Sig) AnyCommonBit(o Sig) bool {
	s.sameLen(o)
	for i := range s.w {
		if s.w[i]&o.w[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports bit equality.
func (s Sig) Equal(o Sig) bool {
	if len(s.w) != len(o.w) {
		return false
	}
	for i := range s.w {
		if s.w[i] != o.w[i] {
			return false
		}
	}
	return true
}

// Words exposes the backing words (aliased, not copied) so queues can ship
// signatures without reallocation.
//
//tm:hotpath
func (s Sig) Words() []uint64 { return s.w }

// FromWords wraps an existing word slice as a signature for cfg (aliased,
// not copied). len(w) must equal cfg.Words(). The panic message is a
// constant for sameLen's reason: rococotm's read path cuts sub-signatures
// with it.
func FromWords(cfg Config, w []uint64) Sig {
	if len(w) != cfg.Words() {
		panic("sig: FromWords got a word count that is not the geometry's")
	}
	return Sig{pw: cfg.PartitionBits() / 64, w: w}
}

// sameLen sits on the validate/commit hot path via Intersects and Union:
// the panic message is a constant, because a fmt.Sprintf here makes every
// caller heap-allocate for a branch that never executes (escape analysis
// is path-insensitive).
func (s Sig) sameLen(o Sig) {
	if len(s.w) != len(o.w) {
		panic("sig: geometry mismatch between signature word counts")
	}
}

// ---------------------------------------------------------------------------
// Segment-union helpers for aggregate signature rings.
//
// An aggregate ring summarizes a sequence of per-commit signatures with a
// flat segment tree: level L holds the union of each naturally aligned
// 2^L-commit block. Folding an arbitrary range [lo, hi) then decomposes
// greedily into O(log(hi-lo)) aligned power-of-two segments instead of
// hi-lo per-commit loads.

// SegLevel returns the level of the largest aligned segment usable at the
// start of the range [lo, hi): the greatest L ≤ maxLevel with lo divisible
// by 2^L and lo+2^L ≤ hi. It returns 0 when only a single-element step
// fits (including the degenerate lo >= hi).
//
//tm:hotpath
func SegLevel(lo, hi uint64, maxLevel int) int {
	if hi <= lo {
		return 0
	}
	l := bits.TrailingZeros64(lo)
	if lo == 0 {
		l = 63
	}
	if span := 63 - bits.LeadingZeros64(hi-lo); span < l {
		l = span
	}
	if l > maxLevel {
		l = maxLevel
	}
	if l < 0 {
		l = 0
	}
	return l
}

// ---------------------------------------------------------------------------
// Analytic false-positivity model (Figure 7).

// BitSetProb returns the probability that a particular bit of a partition
// is set after n distinct insertions: 1 - (1 - k/m)^n for the partitioned
// filter (each insertion sets exactly one of m/k bits per partition).
func BitSetProb(cfg Config, n int) float64 {
	pb := float64(cfg.PartitionBits())
	return 1 - math.Pow(1-1/pb, float64(n))
}

// QueryFPRate returns the probability that a membership query for an
// address outside the set answers true after n insertions: p^k with
// p = BitSetProb.
func QueryFPRate(cfg Config, n int) float64 {
	return math.Pow(BitSetProb(cfg, n), float64(cfg.K))
}

// IntersectFPRate returns the probability of a false set-overlap between
// the signatures of two disjoint sets with na and nb elements, under the
// per-partition AND test: every one of the k partitions must contain a
// common bit. With each bit commonly set with probability pa*pb
// (independence approximation), a partition of m/k bits has a common bit
// with probability 1-(1-pa*pb)^(m/k), and all k must:
//
//	FP = (1 - (1 - pa*pb)^(m/k))^k
func IntersectFPRate(cfg Config, na, nb int) float64 {
	pa := BitSetProb(cfg, na)
	pb := BitSetProb(cfg, nb)
	perPartition := 1 - math.Pow(1-pa*pb, float64(cfg.PartitionBits()))
	return math.Pow(perPartition, float64(cfg.K))
}
