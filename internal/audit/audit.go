// Package audit is a runtime serializability auditor for the ROCoCoTM
// commit stream. It hooks into the runtime as a rococotm.CommitObserver:
// every committed write transaction is delivered at its serialization
// point — in strictly increasing commit-sequence order — with its read and
// write footprints and the snapshot (ValidTS) the engine validated the
// read set against. From that stream the auditor incrementally rebuilds
// the R/W-dependency graph of §3 and checks the paper's axiom: the
// committed history is serializable iff the graph is acyclic.
//
// The graph is the standard dependency serialization graph, kept in
// transitive-reduced form (acyclicity is preserved; see DependencyGraph in
// internal/semantics for the unreduced offline construction):
//
//   - RAW: the latest writer of a location before a reader's snapshot
//     precedes the reader;
//   - WAW: consecutive writers of a location chain forward;
//   - WAR: a reader precedes the *first* writer of the location at or
//     after its snapshot. When that writer committed earlier in sequence
//     order than the reader — the engine serialized the reader into the
//     past, the ROCoCo reordering of §4 — the edge points backward.
//
// Forward edges follow commit order and can never close a cycle on their
// own; every cycle contains a backward WAR edge, and its newest member is
// the source of one. The auditor therefore runs a graph search only when
// a commit introduces a backward edge, which keeps the common case at a
// few index probes per commit.
//
// The window is bounded: it tracks the last 4096 commits (maxSpan).
// Backward edges reach at most as far back as a snapshot can lag, and the
// runtime's commit queue aborts any transaction lagging more than its 4096
// slots, so every possible cycle is contained in the window. A validTS
// older than the window is still counted (HorizonBreaches), so an auditor
// attached to a deeper history reports itself.
package audit

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"rococotm/internal/semantics"
	"rococotm/internal/trace"
)

// Config parameterizes an Auditor. The zero value is usable.
type Config struct {
	// KeepHistory retains every observed record so History and Trace can
	// rebuild the full run for the offline checkers. Memory grows without
	// bound — tests and the self-test only.
	KeepHistory bool
}

const (
	// maxSpan bounds the audit window (commits tracked at once); it is the
	// runtime's commit-queue size, as the no-missed-cycle guarantee needs.
	maxSpan = 4096
	// keepViolations bounds the retained violation details (the counters
	// are exact regardless).
	keepViolations = 16
)

// Record is one observed commit.
type Record struct {
	Seq, ValidTS uint64
	Reads        []uint64
	Writes       []uint64
}

// Violation is one detected dependency cycle.
type Violation struct {
	// Seq is the commit whose insertion closed the cycle (its newest
	// member).
	Seq uint64
	// Cycle lists the member commit sequences in edge order, starting at
	// Seq; the last element has an edge back to Seq.
	Cycle []uint64
}

// Stats is a snapshot of the audit counters.
type Stats struct {
	Observed        uint64 // commits recorded
	Edges           uint64 // dependency edges added
	BackEdges       uint64 // backward WAR edges (reorderings) seen
	Searches        uint64 // graph searches triggered by backward edges
	Violations      uint64 // dependency cycles found
	Gaps            uint64 // commit-sequence discontinuities (observer bug)
	HorizonBreaches uint64 // snapshots older than the audit window
}

// node is one windowed commit. Edges are stored on the source node as
// target sequences; nodes[i] holds sequence base+i.
type node struct {
	seq, validTS uint64
	reads        []uint64
	writes       []uint64
	out          []uint64
}

// reader is one windowed read of a location, pending its first overwriter.
type reader struct {
	seq, validTS uint64
}

// Auditor incrementally audits a commit stream. It implements
// rococotm.CommitObserver; all methods are safe for concurrent use (the
// runtime serializes ObserveCommit calls, but Stats readers race them).
type Auditor struct {
	cfg  Config
	span int // maxSpan; tests shrink it to force evictions

	mu      sync.Mutex
	started bool
	base    uint64 // sequence of nodes[0]
	next    uint64 // expected next sequence
	nodes   []node
	// writers maps a location to the window's writer sequences,
	// ascending. readers holds reads still awaiting their first
	// overwriter — a write to the location resolves (and clears) them.
	writers map[uint64][]uint64
	readers map[uint64][]reader

	stats Stats
	viol  []Violation
	hist  []Record
}

// New builds an Auditor.
func New(cfg Config) *Auditor {
	return &Auditor{
		cfg:     cfg,
		span:    maxSpan,
		writers: map[uint64][]uint64{},
		readers: map[uint64][]reader{},
	}
}

// ObserveCommit implements rococotm.CommitObserver. The slices belong to
// the caller and are copied.
func (a *Auditor) ObserveCommit(seq, validTS uint64, reads, writes []uint64) {
	a.Observe(Record{
		Seq:     seq,
		ValidTS: validTS,
		Reads:   append([]uint64(nil), reads...),
		Writes:  append([]uint64(nil), writes...),
	})
}

// Observe records one commit; rec's slices are retained.
func (a *Auditor) Observe(rec Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.Observed++
	if a.cfg.KeepHistory {
		a.hist = append(a.hist, rec)
	}
	if a.started && rec.Seq != a.next {
		// The observer contract (strictly increasing, contiguous) broke;
		// the graph across the gap is meaningless, so restart the window.
		a.stats.Gaps++
		a.flushLocked()
	}
	if !a.started || len(a.nodes) == 0 {
		a.started = true
		a.base = rec.Seq
	}
	a.next = rec.Seq + 1

	if rec.ValidTS < a.base {
		a.stats.HorizonBreaches++
	}

	n := node{seq: rec.Seq, validTS: rec.ValidTS, reads: rec.Reads, writes: rec.Writes}
	hasBack := false

	// Read edges. RAW: latest writer before the snapshot precedes us.
	// Backward WAR: the first writer at or after the snapshot — already
	// committed, since it is in the window — overwrote what we read, so we
	// precede it despite committing later.
	for _, addr := range rec.Reads {
		ws := a.writers[addr]
		i := sort.Search(len(ws), func(i int) bool { return ws[i] >= rec.ValidTS })
		if i > 0 {
			a.addEdge(ws[i-1], rec.Seq)
		}
		if i < len(ws) {
			n.out = append(n.out, ws[i])
			a.stats.Edges++
			a.stats.BackEdges++
			hasBack = true
		}
	}

	// Write edges. WAW: chain behind the previous writer. Forward WAR:
	// any pending reader whose snapshot no earlier writer overwrote has us
	// as its first overwriter; a write resolves every pending reader one
	// way or the other, so the pending list clears.
	for _, addr := range rec.Writes {
		ws := a.writers[addr]
		last := uint64(0)
		haveLast := false
		if len(ws) > 0 {
			last = ws[len(ws)-1]
			haveLast = true
			a.addEdge(last, rec.Seq)
		}
		if rs := a.readers[addr]; len(rs) > 0 {
			for _, r := range rs {
				if r.seq == rec.Seq {
					continue // our own read of a location we write
				}
				if !haveLast || last < r.validTS {
					a.addEdge(r.seq, rec.Seq)
				}
			}
			delete(a.readers, addr)
		}
		a.writers[addr] = append(ws, rec.Seq)
	}
	for _, addr := range rec.Reads {
		a.readers[addr] = append(a.readers[addr], reader{seq: rec.Seq, validTS: rec.ValidTS})
	}

	a.nodes = append(a.nodes, n)
	for len(a.nodes) > a.span {
		a.evictLocked()
	}

	if hasBack {
		a.stats.Searches++
		if cyc := a.findCycleLocked(rec.Seq); cyc != nil {
			a.stats.Violations++
			if len(a.viol) < keepViolations {
				a.viol = append(a.viol, Violation{Seq: rec.Seq, Cycle: cyc})
			}
		}
	}
}

// addEdge records from → to on the (windowed) source node.
func (a *Auditor) addEdge(from, to uint64) {
	if from < a.base || from == to {
		return
	}
	i := int(from - a.base)
	if i >= len(a.nodes) {
		return
	}
	a.nodes[i].out = append(a.nodes[i].out, to)
	a.stats.Edges++
}

// evictLocked drops the oldest windowed commit and its index entries.
func (a *Auditor) evictLocked() {
	old := a.nodes[0]
	a.nodes = a.nodes[1:]
	a.base = old.seq + 1
	for _, addr := range old.writes {
		if ws := a.writers[addr]; len(ws) > 0 && ws[0] == old.seq {
			if len(ws) == 1 {
				delete(a.writers, addr)
			} else {
				a.writers[addr] = ws[1:]
			}
		}
	}
	for _, addr := range old.reads {
		if rs := a.readers[addr]; len(rs) > 0 && rs[0].seq == old.seq {
			if len(rs) == 1 {
				delete(a.readers, addr)
			} else {
				a.readers[addr] = rs[1:]
			}
		}
	}
}

// flushLocked restarts the window (sequence gap recovery).
func (a *Auditor) flushLocked() {
	a.nodes = a.nodes[:0]
	a.writers = map[uint64][]uint64{}
	a.readers = map[uint64][]reader{}
	a.started = false
}

// findCycleLocked searches for a path from start back to itself and
// returns the member sequences in edge order (nil if acyclic). Iterative
// DFS over the window; edges to evicted or future sequences are dead.
func (a *Auditor) findCycleLocked(start uint64) []uint64 {
	n := len(a.nodes)
	si := int(start - a.base)
	if si < 0 || si >= n {
		return nil
	}
	visited := make([]bool, n)
	parent := make([]int32, n)
	visited[si] = true
	stack := []int{si}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, tseq := range a.nodes[i].out {
			if tseq == start && i != si {
				// Reconstruct start → … → i, whose last hop returns to
				// start.
				var rev []uint64
				for k := i; k != si; k = int(parent[k]) {
					rev = append(rev, a.nodes[k].seq)
				}
				cyc := make([]uint64, 0, len(rev)+1)
				cyc = append(cyc, start)
				for j := len(rev) - 1; j >= 0; j-- {
					cyc = append(cyc, rev[j])
				}
				return cyc
			}
			if tseq < a.base {
				continue
			}
			j := int(tseq - a.base)
			if j >= n || visited[j] {
				continue
			}
			visited[j] = true
			parent[j] = int32(i)
			stack = append(stack, j)
		}
	}
	return nil
}

// Stats returns a snapshot of the audit counters.
func (a *Auditor) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Violations returns the retained violation details (up to
// keepViolations; the Stats counter is exact).
func (a *Auditor) Violations() []Violation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Violation(nil), a.viol...)
}

// Certify replays a commit stream — typically the records a crash
// recovery extracted from the write-ahead log — through a fresh Auditor
// and returns its verdict: nil iff the stream is gap-free, within the
// audit horizon, and certified acyclic. This is the recovery hand-off
// point: after a crash, the log's intact prefix must still read as a
// serializable history, or the durable state itself is corrupt.
func Certify(recs []Record, cfg Config) error {
	a := New(cfg)
	for _, rec := range recs {
		a.Observe(rec)
	}
	return a.Err()
}

// Err summarizes the verdict: nil iff the observed history is certified
// acyclic and the observation stream itself was sound.
func (a *Auditor) Err() error {
	s := a.Stats()
	switch {
	case s.Violations > 0:
		return fmt.Errorf("audit: %d serializability violation(s) in %d commits (first: %v)",
			s.Violations, s.Observed, a.Violations()[0].Cycle)
	case s.Gaps > 0:
		return fmt.Errorf("audit: %d commit-sequence gap(s) in %d commits", s.Gaps, s.Observed)
	case s.HorizonBreaches > 0:
		return fmt.Errorf("audit: %d snapshot(s) older than the %d-commit audit window",
			s.HorizonBreaches, a.span)
	}
	return nil
}

// History rebuilds the full run as a semantics.History for the offline
// checkers (KeepHistory only). Commit order provides both the real-time
// intervals and the per-object write order; reads are resolved to the
// latest writer before each transaction's snapshot.
func (a *Auditor) History() (semantics.History, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.cfg.KeepHistory {
		return semantics.History{}, fmt.Errorf("audit: History requires Config.KeepHistory")
	}
	name := func(seq uint64) string { return "t" + strconv.FormatUint(seq, 10) }
	obj := func(addr uint64) string { return "x" + strconv.FormatUint(addr, 10) }
	writersOf := map[uint64][]uint64{}
	order := map[string][]string{}
	for _, rec := range a.hist {
		for _, addr := range rec.Writes {
			writersOf[addr] = append(writersOf[addr], rec.Seq)
			order[obj(addr)] = append(order[obj(addr)], name(rec.Seq))
		}
	}
	h := semantics.History{WriteOrder: order}
	for _, rec := range a.hist {
		t := semantics.Txn{
			ID:    name(rec.Seq),
			Start: float64(rec.Seq),
			End:   float64(rec.Seq) + 0.5,
			Reads: map[string]string{},
		}
		for _, addr := range rec.Writes {
			t.Writes = append(t.Writes, obj(addr))
		}
		for _, addr := range rec.Reads {
			ws := writersOf[addr]
			i := sort.Search(len(ws), func(i int) bool { return ws[i] >= rec.ValidTS })
			ver := semantics.InitialVersion
			if i > 0 {
				ver = name(ws[i-1])
			}
			t.Reads[obj(addr)] = ver
		}
		h.Txns = append(h.Txns, t)
	}
	return h, nil
}

// Trace exports the full run in the internal/trace encoding (KeepHistory
// only). Reads exclude locations the transaction also wrote, keeping the
// sets disjoint as trace.Txn requires.
func (a *Auditor) Trace() ([]trace.Txn, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.cfg.KeepHistory {
		return nil, fmt.Errorf("audit: Trace requires Config.KeepHistory")
	}
	out := make([]trace.Txn, 0, len(a.hist))
	for _, rec := range a.hist {
		t := trace.Txn{ID: int(rec.Seq)}
		written := map[uint64]bool{}
		for _, addr := range rec.Writes {
			if !written[addr] {
				written[addr] = true
				t.Writes = append(t.Writes, int(addr))
			}
		}
		for _, addr := range rec.Reads {
			if !written[addr] {
				t.Reads = append(t.Reads, int(addr))
			}
		}
		sort.Ints(t.Reads)
		sort.Ints(t.Writes)
		out = append(out, t)
	}
	return out, nil
}

// SelfTest seeds a fresh auditor with a known-bad pair of verdicts — two
// transactions that each read what the other wrote from the same snapshot,
// the canonical unserializable reordering — and verifies the inline
// checker flags exactly one violation and the offline §3 checker agrees.
// A passing self-test certifies the audit machinery itself before a run's
// "0 violations" verdict is believed.
func SelfTest() error {
	a := New(Config{KeepHistory: true})
	a.Observe(Record{Seq: 0, ValidTS: 0, Reads: []uint64{1}, Writes: []uint64{2}})
	a.Observe(Record{Seq: 1, ValidTS: 0, Reads: []uint64{2}, Writes: []uint64{1}})
	s := a.Stats()
	if s.Violations != 1 {
		return fmt.Errorf("audit: self-test expected exactly 1 violation, got %d", s.Violations)
	}
	h, err := a.History()
	if err != nil {
		return fmt.Errorf("audit: self-test: %w", err)
	}
	ok, _, err := h.Serializable()
	if err != nil {
		return fmt.Errorf("audit: self-test offline check: %w", err)
	}
	if ok {
		return fmt.Errorf("audit: self-test: offline checker calls the seeded cycle serializable")
	}
	return nil
}
