package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// The traced pass measures every layer from outside: the runtime is wrapped
// in a proxy tm.TM whose Begin/Commit/Abort and whose Txn.Read/Write record
// spans around the calls into the real runtime. One logical transaction in
// 64 is recorded; the read/write/attempt counts are exact.

type spanKind uint8

const (
	spTxn   spanKind = iota // one logical transaction, retries included (root)
	spDo                    // one serve.Server.Do call (root, client side)
	spBegin                 // children of spTxn, one per call into the runtime
	spRead
	spWrite
	spCommit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"txn", "serve.do", "begin", "read", "write", "commit"}

// span is one timed call. Spans of one logical transaction share Txn;
// Parent is the index of the root span in the same thread's slice (-1 for a
// root). Times are nanoseconds since the round's epoch.
type span struct {
	Txn     uint64
	Kind    spanKind
	Update  bool // commit of an attempt that wrote
	Aborted bool // the call returned a transactional abort
	Parent  int32
	Start   int64
	End     int64
}

const spanLogCap = 1 << 19

// recorder is one goroutine's span log; only its owner appends.
type recorder struct {
	spans []span
	_     [40]byte // keep neighbouring recorders off one cache line
}

func (r *recorder) add(s span) int32 {
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

// proxyThread is the per-tm-thread state; only that thread touches it.
type proxyThread struct {
	recorder
	id      int
	on      bool // the current logical transaction is recorded
	inRetry bool // the last attempt aborted: the next Begin is a retry
	txn     uint64
	root    int32
	seq     uint64 // logical transactions seen (auto mode)

	attReads, attWrites int    // current attempt
	reads, writes       uint64 // committed attempts only, so the count repeats for a fixed op stream
	commits             uint64

	px proxyTxn
	_  [64]byte
}

// proxy wraps a runtime. In direct mode the harness brackets each logical
// transaction with open/closeTxn (it runs on the tm thread). In auto mode
// (under serve, where the client cannot know which worker thread will run
// its request) the proxy finds the boundaries itself: a Begin that does not
// follow an abort starts a logical transaction, a successful Commit or an
// explicit Abort ends it.
type proxy struct {
	inner tm.TM
	auto  bool
	epoch time.Time
	th    []proxyThread
}

func newProxy(inner tm.TM, auto bool) *proxy {
	p := &proxy{inner: inner, auto: auto, epoch: time.Now(), th: make([]proxyThread, maxThreads)}
	for i := range p.th {
		p.th[i].id = i
		p.th[i].px = proxyTxn{th: &p.th[i], p: p}
		// Sized for a 2 s window of the index workload, so that no recorded
		// transaction pays for growing the log.
		p.th[i].spans = make([]span, 0, spanLogCap)
	}
	return p
}

// tm returns the proxy as a tm.TM that implements exactly the optional
// interfaces the wrapped runtime implements. tm.Run and tm.RunReadOnly
// switch on those interfaces, so a proxy that added or dropped one would
// silently change the path being measured (hybrid site routing, snapshot
// reads).
func (p *proxy) tm() tm.TM {
	_, site := p.inner.(tm.SiteRunner)
	_, snap := p.inner.(tm.Snapshotter)
	switch {
	case site:
		return siteProxy{p}
	case snap:
		return snapProxy{p}
	}
	return p
}

func (p *proxy) now() int64 { return int64(time.Since(p.epoch)) }

// openTxn starts a logical transaction on thread; record says whether its
// spans are kept.
func (p *proxy) openTxn(thread int, record bool) {
	th := &p.th[thread]
	th.seq++
	th.on = record
	if record {
		th.txn = uint64(thread)<<48 | th.seq
		th.root = th.add(span{Txn: th.txn, Kind: spTxn, Parent: -1, Start: p.now()})
	}
}

func (p *proxy) closeTxn(thread int) {
	th := &p.th[thread]
	if th.on {
		th.spans[th.root].End = p.now()
		th.on = false
	}
	th.inRetry = false
}

func (p *proxy) Name() string    { return p.inner.Name() }
func (p *proxy) Heap() *mem.Heap { return p.inner.Heap() }
func (p *proxy) Stats() tm.Stats { return p.inner.Stats() }
func (p *proxy) Close()          { p.inner.Close() }

// Escalate forwards tm.Escalator; both runtimes under test implement it.
func (p *proxy) Escalate(thread int) {
	if e, ok := p.inner.(tm.Escalator); ok {
		e.Escalate(thread)
	}
}

func (p *proxy) Begin(thread int) (tm.Txn, error) { return p.begin(thread, 0, false) }

func (p *proxy) begin(thread int, site uint64, useSite bool) (tm.Txn, error) {
	th := &p.th[thread]
	if p.auto && !th.inRetry {
		p.openTxn(thread, (th.seq+1)%sampleEvery == 0)
	}
	var start int64
	if th.on {
		start = p.now()
	}
	var t tm.Txn
	var err error
	if useSite {
		t, err = p.inner.(tm.SiteRunner).BeginSite(thread, site)
	} else {
		t, err = p.inner.Begin(thread)
	}
	if th.on {
		th.add(span{Txn: th.txn, Kind: spBegin, Parent: th.root, Start: start, End: p.now()})
	}
	if err != nil {
		return nil, err
	}
	th.attReads, th.attWrites = 0, 0
	th.px.t = t
	return &th.px, nil
}

func (p *proxy) Commit(t tm.Txn) error {
	x := t.(*proxyTxn)
	th := x.th
	var start int64
	if th.on {
		start = p.now()
	}
	err := p.inner.Commit(x.t)
	if th.on {
		th.add(span{Txn: th.txn, Kind: spCommit, Update: th.attWrites > 0, Aborted: err != nil,
			Parent: th.root, Start: start, End: p.now()})
	}
	if err != nil {
		th.inRetry = true
		return err
	}
	th.reads += uint64(th.attReads)
	th.writes += uint64(th.attWrites)
	th.commits++
	if p.auto {
		p.closeTxn(x.th.id)
	}
	return nil
}

// Abort is the explicit rollback the retry loop issues when the body failed
// with a non-transactional error; it ends the logical transaction.
func (p *proxy) Abort(t tm.Txn) {
	x := t.(*proxyTxn)
	p.inner.Abort(x.t)
	if p.auto {
		p.closeTxn(x.th.id)
	}
}

// proxyTxn forwards to the attempt's real Txn; one per thread, reused.
type proxyTxn struct {
	t  tm.Txn
	th *proxyThread
	p  *proxy
}

func (x *proxyTxn) Read(a mem.Addr) (mem.Word, error) {
	th := x.th
	th.attReads++
	var start int64
	if th.on {
		start = x.p.now()
	}
	v, err := x.t.Read(a)
	x.done(spRead, start, err)
	return v, err
}

func (x *proxyTxn) Write(a mem.Addr, v mem.Word) error {
	th := x.th
	th.attWrites++
	var start int64
	if th.on {
		start = x.p.now()
	}
	err := x.t.Write(a, v)
	x.done(spWrite, start, err)
	return err
}

// done closes one access: its span if the transaction is recorded, and the
// retry mark if the runtime aborted the attempt.
func (x *proxyTxn) done(kind spanKind, start int64, err error) {
	th := x.th
	if th.on {
		th.add(span{Txn: th.txn, Kind: kind, Aborted: err != nil, Parent: th.root, Start: start, End: x.p.now()})
	}
	if err != nil {
		th.inRetry = true
	}
}

// siteProxy adds tm.SiteRunner for runtimes that route per site.
type siteProxy struct{ *proxy }

func (s siteProxy) BeginSite(thread int, site uint64) (tm.Txn, error) {
	return s.begin(thread, site, true)
}

// snapProxy adds tm.Snapshotter for runtimes that serve snapshot reads.
// Snapshot reads are not transactions and record no spans.
type snapProxy struct{ *proxy }

func (s snapProxy) RetrieveSnapshot() (tm.Snapshot, error) {
	return s.inner.(tm.Snapshotter).RetrieveSnapshot()
}

func (s snapProxy) ReleaseSnapshot(sn tm.Snapshot) {
	s.inner.(tm.Snapshotter).ReleaseSnapshot(sn)
}

// proxyCounts are the proxy's exact counts over committed attempts.
type proxyCounts struct{ reads, writes, commits uint64 }

// counts sums the per-thread counts; call it while no worker runs.
func (p *proxy) counts() proxyCounts {
	var c proxyCounts
	for i := range p.th {
		c.reads += p.th[i].reads
		c.writes += p.th[i].writes
		c.commits += p.th[i].commits
	}
	return c
}

// kindAgg sums one span kind.
type kindAgg struct {
	N  uint64
	NS uint64
}

func (k *kindAgg) add(ns int64) {
	k.N++
	if ns > 0 {
		k.NS += uint64(ns)
	}
}

func (k *kindAgg) merge(o kindAgg) {
	k.N += o.N
	k.NS += o.NS
}

func (k kindAgg) mean() float64 {
	if k.N == 0 {
		return 0
	}
	return float64(k.NS) / float64(k.N)
}

// traceAgg is what a traced round reports: per-kind totals over the
// recorded transactions, plus the proxy's exact counts.
type traceAgg struct {
	ClockNS, PairNS int64 // calibrated cost of one clock read, and of one recorded span

	Txns      uint64 // recorded logical transactions
	RootNS    uint64 // sum of their spans
	SelfNS    uint64 // root minus children minus backoff: retry loop and transaction body
	BackoffNS uint64 // gaps between an aborted attempt's last call and the next Begin
	Begin     kindAgg
	Read      kindAgg
	Write     kindAgg
	CommitUpd kindAgg
	CommitRO  kindAgg
	Abort     kindAgg // whichever call returned the abort
	Do        kindAgg // serve.Server.Do, client side

	Reads, Writes, Commits uint64 // exact, committed attempts only
}

func (a traceAgg) rootMean() float64 {
	if a.Txns == 0 {
		return 0
	}
	return float64(a.RootNS) / float64(a.Txns)
}

func (a *traceAgg) merge(o traceAgg) {
	a.Txns += o.Txns
	a.RootNS += o.RootNS
	a.SelfNS += o.SelfNS
	a.BackoffNS += o.BackoffNS
	a.Begin.merge(o.Begin)
	a.Read.merge(o.Read)
	a.Write.merge(o.Write)
	a.CommitUpd.merge(o.CommitUpd)
	a.CommitRO.merge(o.CommitRO)
	a.Abort.merge(o.Abort)
	a.Do.merge(o.Do)
	a.Reads += o.Reads
	a.Writes += o.Writes
	a.Commits += o.Commits
}

// calibrate measures what recording costs, so that aggregate can take it
// back out: clk is one clock read, pair is everything one recorded child
// span adds to its parent (two clock reads and the append).
func (p *proxy) calibrate() (clk, pair int64) {
	const n = 20000
	best := func(f func()) int64 {
		min := int64(1 << 62)
		for rep := 0; rep < 5; rep++ {
			start := p.now()
			f()
			if d := (p.now() - start) / n; d < min {
				min = d
			}
		}
		return min
	}
	var acc int64
	clk = best(func() {
		for i := 0; i < n; i++ {
			acc += p.now()
		}
	})
	var r recorder
	r.spans = make([]span, 0, n)
	pair = best(func() {
		r.spans = r.spans[:0]
		for i := 0; i < n; i++ {
			start := p.now()
			r.add(span{Kind: spRead, Start: start, End: p.now()})
		}
	})
	if acc == 0 || pair < 2*clk {
		pair = 2 * clk
	}
	return clk, pair
}

// aggregate folds the span logs. A thread's log holds whole transactions in
// order: a root followed by its children. A span's clock reads are inside
// its parent, so a recorded transaction is longer than an unrecorded one;
// the calibrated costs are subtracted: clk from every span (half of each of
// its own two reads), and pair per child from the root.
func aggregate(clk, pair int64, logs ...[]span) traceAgg {
	a := traceAgg{ClockNS: clk, PairNS: pair}
	for _, spans := range logs {
		var children, backoff, overhead, prevEnd int64
		var root *span
		flush := func() {
			if root == nil || root.End == 0 {
				return // none yet, or cut off by the end of the window
			}
			d := root.End - root.Start - clk - overhead
			a.Txns++
			a.RootNS += uint64(d)
			a.BackoffNS += uint64(backoff)
			if self := d - children - backoff; self > 0 {
				a.SelfNS += uint64(self)
			}
		}
		for i := range spans {
			s := spans[i]
			switch s.Kind {
			case spDo:
				a.Do.add(s.End - s.Start - clk)
				continue
			case spTxn:
				flush()
				root, children, backoff, overhead, prevEnd = &spans[i], 0, 0, 0, 0
				continue
			}
			if root == nil {
				continue
			}
			if s.Kind == spBegin && prevEnd != 0 {
				if gap := s.Start - prevEnd - (pair - clk); gap > 0 {
					backoff += gap
				}
			}
			prevEnd = s.End
			d := s.End - s.Start - clk
			if d < 0 {
				d = 0
			}
			overhead += pair
			children += d
			switch {
			case s.Aborted:
				a.Abort.add(d)
			case s.Kind == spBegin:
				a.Begin.add(d)
			case s.Kind == spRead:
				a.Read.add(d)
			case s.Kind == spWrite:
				a.Write.add(d)
			case s.Update:
				a.CommitUpd.add(d)
			default:
				a.CommitRO.add(d)
			}
		}
		flush()
	}
	return a
}

// writeSpans dumps every span as one JSON object per line.
func writeSpans(path, layer string, logs ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		Thread  int    `json:"thread"`
		Txn     uint64 `json:"txn"`
		Name    string `json:"name"`
		Parent  int32  `json:"parent"`
		Start   int64  `json:"start_ns"`
		End     int64  `json:"end_ns"`
		Update  bool   `json:"update,omitempty"`
		Aborted bool   `json:"aborted,omitempty"`
	}
	for th, spans := range logs {
		for _, s := range spans {
			name := spanNames[s.Kind]
			if s.Kind >= spBegin {
				name = layer + "." + name
			}
			if err := enc.Encode(line{th, s.Txn, name, s.Parent, s.Start, s.End, s.Update, s.Aborted}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
