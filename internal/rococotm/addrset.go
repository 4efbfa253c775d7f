package rococotm

import (
	"math/bits"

	"rococotm/internal/sig"
)

// subSigAddrs is the number of addresses per sub-signature (paper: 8,
// matching the 512-bit cache line).
const subSigAddrs = 8

// addrSet is one access set of a transaction, its read set or its write
// set, kept in the forms every consumer of it wants, and fed from one hash
// per access: the caller computes an address's signature indices once
// (sig.Hasher.Indices) and passes them to find and insert.
//
//   - sig is the whole-set signature: the write signature published into the
//     commit queue, the read signature extension intersects first.
//   - subs are the §5.3 sub-signatures: subs[i] holds
//     addrs[i*subSigAddrs:(i+1)*subSigAddrs]. Spares past the live ones are
//     recycled across attempts.
//   - addrs are the distinct addresses in first-access order: the footprint
//     shipped to the validator and the sinks as is.
//   - index maps an address to its position in addrs: open addressing with
//     linear probing over a power-of-two table at most half full, slots
//     holding gen<<32 | position and live only while gen is the set's
//     current one, so reset empties it in O(1). It is built lazily: only
//     addrs[:indexed] are in it, and a find the signature cannot rule out
//     catches it up first, so a set whose signature never answers "maybe"
//     never touches it.
//
// There is no capacity limit and no second representation: two-address
// transfers and transactions of thousands of accesses use the same
// structure, which grows by doubling its index and rehashing addrs.
type addrSet struct {
	cfg   sig.Config
	sig   sig.Sig
	subs  []sig.Sig
	addrs []uint64

	index   []uint64
	gen     uint32
	shift   uint // 64 - log2(len(index)): the index hash keeps the top bits
	indexed int
}

func newAddrSet(cfg sig.Config) addrSet {
	return addrSet{cfg: cfg, sig: sig.New(cfg), gen: 1}
}

// reset empties the set.
func (s *addrSet) reset() {
	s.sig.Reset()
	s.addrs = s.addrs[:0]
	s.indexed = 0
	if s.gen++; s.gen == 0 {
		clear(s.index)
		s.gen = 1
	}
}

// fibHash is the golden-ratio multiplier of the index hash (Fibonacci
// hashing: the top bits of a*fibHash spread consecutive addresses).
const fibHash = 0x9e3779b97f4a7c15

// find returns the position of a, whose signature indices are idx, in
// addrs, or -1 if a is not in the set.
func (s *addrSet) find(a uint64, idx []int) int {
	if !s.sig.QueryIdx(idx) {
		return -1
	}
	s.catchUp()
	mask := len(s.index) - 1
	for i := int(a * fibHash >> s.shift); ; i = (i + 1) & mask {
		e := s.index[i]
		if uint32(e>>32) != s.gen {
			return -1
		}
		if p := int(uint32(e)); s.addrs[p] == a {
			return p
		}
	}
}

// insert adds a, whose signature indices are idx, unless it is in the set
// already. pos is a's position in addrs; fresh reports that insert added it.
func (s *addrSet) insert(a uint64, idx []int) (pos int, fresh bool) {
	if p := s.find(a, idx); p >= 0 {
		return p, false
	}
	n := len(s.addrs)
	k := n / subSigAddrs
	if n%subSigAddrs == 0 {
		if k < len(s.subs) {
			s.subs[k].Reset()
		} else {
			s.subs = append(s.subs, sig.New(s.cfg))
		}
	}
	s.subs[k].InsertIdx(idx)
	s.sig.InsertIdx(idx)
	s.addrs = append(s.addrs, a)
	return n, true
}

// catchUp indexes every address not yet in the index, first doubling the
// index (and rehashing all of addrs into it) if it would pass half full.
func (s *addrSet) catchUp() {
	n := len(s.addrs)
	if 2*n > len(s.index) {
		size := max(16, 2*len(s.index))
		for size < 2*n {
			size *= 2
		}
		s.index = make([]uint64, size)
		s.shift = uint(64 - bits.TrailingZeros(uint(size)))
		s.indexed = 0
	}
	mask := len(s.index) - 1
	for ; s.indexed < n; s.indexed++ {
		i := int(s.addrs[s.indexed] * fibHash >> s.shift)
		for uint32(s.index[i]>>32) == s.gen {
			i = (i + 1) & mask
		}
		s.index[i] = uint64(s.gen)<<32 | uint64(s.indexed)
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
	if len(s.addrs) == 0 || !s.sig.Intersects(commit) {
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
