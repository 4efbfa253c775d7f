package rococotm

import (
	"math/bits"

	"rococotm/internal/sig"
)

// subSigAddrs is the number of addresses per sub-signature (paper: 8,
// matching the 512-bit cache line).
const subSigAddrs = 8

// addrSet is one access set of a transaction, its read set or its write
// set. An access costs one probe of a position index and no signature work;
// the signatures are built only when a consumer needs them — the snapshot
// extension's overlaps, and claim's write signature — by sign, which hashes
// the addresses recorded since its last call.
//
//   - addrs are the distinct addresses in first-access order: the footprint
//     shipped to the validator and the sinks as is.
//   - index maps an address to its position in addrs: open addressing with
//     linear probing over a power-of-two table at most half full, slots
//     holding gen<<32 | position and live only while gen is the set's
//     current one, so reset empties it in O(1). insert and find keep it
//     complete.
//   - sig is the whole-set signature: the write signature published into the
//     commit queue, the read signature extension intersects first.
//   - subs are the §5.3 sub-signatures: subs[i] holds
//     addrs[i*subSigAddrs:(i+1)*subSigAddrs]. Their words lie back to back
//     in subWords. Spares past the live ones are recycled across attempts;
//     insert and add grow them, so sign never allocates.
//
// sig and subs describe addrs[:signed] only, and hold stale bits until the
// first sign of an attempt resets them: read them after a sign.
//
// There is no capacity limit and no second representation: two-address
// transfers and transactions of thousands of accesses use the same
// structure, which grows by doubling its index and rehashing addrs.
//
// A read-only attempt's read set takes its addresses by add instead: no
// index, repeats kept. sign and overlaps read addrs alone, and a repeat
// sets bits that are set already and passes a query that one copy passes,
// so the signatures and every overlap verdict equal the distinct set's.
type addrSet struct {
	cfg      sig.Config
	sig      sig.Sig
	subs     []sig.Sig
	subWords []uint64
	addrs    []uint64
	signed   int

	index []uint64
	gen   uint32
	shift uint // 64 - log2(len(index)): the index hash keeps the top bits
}

// indexMin is the initial size of a set's index.
const indexMin = 16

func newAddrSet(cfg sig.Config) addrSet {
	return addrSet{cfg: cfg, sig: sig.New(cfg), gen: 1,
		index: make([]uint64, indexMin), shift: uint(64 - bits.TrailingZeros(indexMin))}
}

// reset empties the set.
func (s *addrSet) reset() {
	s.addrs = s.addrs[:0]
	s.signed = 0
	if s.gen++; s.gen == 0 {
		clear(s.index)
		s.gen = 1
	}
}

// fibHash is the golden-ratio multiplier of the index hash (Fibonacci
// hashing: the top bits of a*fibHash spread consecutive addresses).
const fibHash = 0x9e3779b97f4a7c15

// slot returns a's position in addrs, or -1 and the free index slot where
// a's probe ended.
func (s *addrSet) slot(a uint64) (pos, free int) {
	mask := len(s.index) - 1
	for i := int(a * fibHash >> s.shift); ; i = (i + 1) & mask {
		e := s.index[i]
		if uint32(e>>32) != s.gen {
			return -1, i
		}
		if p := int(uint32(e)); s.addrs[p] == a {
			return p, i
		}
	}
}

// find returns the position of a in addrs, or -1 if a is not in the set.
func (s *addrSet) find(a uint64) int {
	p, _ := s.slot(a)
	return p
}

// insert adds a unless it is in the set already. pos is a's position in
// addrs; fresh reports that insert added it.
func (s *addrSet) insert(a uint64) (pos int, fresh bool) {
	p, i := s.slot(a)
	if p >= 0 {
		return p, false
	}
	n := len(s.addrs)
	if 2*(n+1) > len(s.index) {
		s.grow()
		_, i = s.slot(a)
	}
	s.index[i] = uint64(s.gen)<<32 | uint64(n)
	s.add(a)
	return n, true
}

// add appends a to addrs, whether or not it is there already, and leaves the
// index as it was: the set is a log from then on, for sign and overlaps
// only, until reset.
//
//tm:hotpath
func (s *addrSet) add(a uint64) {
	if len(s.addrs) == len(s.subs)*subSigAddrs {
		s.growSubs()
	}
	s.addrs = append(s.addrs, a)
}

// growSubs adds one sub-signature. subWords grows by append, and when that
// moves it, the earlier sub-signatures are re-cut from the new array, which
// holds their bits.
//
//tm:hotpath
func (s *addrSet) growSubs() {
	w := s.cfg.Words()
	old := cap(s.subWords)
	for range w {
		s.subWords = append(s.subWords, 0)
	}
	if cap(s.subWords) != old {
		for k := range s.subs {
			s.subs[k] = sig.FromWords(s.cfg, s.subWords[k*w:(k+1)*w:(k+1)*w])
		}
	}
	n := len(s.subWords)
	s.subs = append(s.subs, sig.FromWords(s.cfg, s.subWords[n-w:n:n]))
}

// grow doubles the index and rehashes addrs into it.
func (s *addrSet) grow() {
	s.index = make([]uint64, 2*len(s.index))
	s.shift--
	for p, a := range s.addrs {
		_, i := s.slot(a)
		s.index[i] = uint64(s.gen)<<32 | uint64(p)
	}
}

// sign brings sig and subs up to date with addrs: it hashes every address
// recorded since the last sign, once, into its sub-signature, and unions
// the sub-signatures it touched into sig. The first sign of an attempt
// resets them.
//
//tm:hotpath
func (s *addrSet) sign(h *sig.Hasher) {
	if s.signed == 0 {
		s.sig.Reset()
	}
	for s.signed < len(s.addrs) {
		k := s.signed / subSigAddrs
		sub := s.subs[k]
		if s.signed%subSigAddrs == 0 {
			sub.Reset()
		}
		for end := min((k+1)*subSigAddrs, len(s.addrs)); s.signed < end; s.signed++ {
			sub.Insert(h, s.addrs[s.signed])
		}
		s.sig.Union(sub)
	}
}

// overlaps implements the layered intersection of §5.3 against one
// committed write signature: the whole-set signature first (usually
// disjoint → O(1)), the 8-address sub-signatures next, and finally — the
// paper's "small chance of an O(r) overhead" — a per-address membership
// query of the flagged sub-set against the commit signature, which reduces
// the false-conflict rate to the query operation's (negligible for
// cache-line-sized write sets) instead of the intersection's.
//
//tm:hotpath
func (s *addrSet) overlaps(h *sig.Hasher, commit sig.Sig) bool {
	if len(s.addrs) == 0 {
		return false
	}
	s.sign(h)
	if !s.sig.Intersects(commit) {
		return false
	}
	for lo := 0; lo < len(s.addrs); lo += subSigAddrs {
		if !s.subs[lo/subSigAddrs].Intersects(commit) {
			continue
		}
		for _, a := range s.addrs[lo:min(lo+subSigAddrs, len(s.addrs))] {
			if commit.Query(h, a) {
				return true
			}
		}
	}
	return false
}
