// Package seqtm is the sequential baseline: a trivially correct TM whose
// transactions run under one global mutex with direct heap access and no
// instrumentation. It plays the role of STAMP's sequential reference
// executable — the denominator of every speedup in Figure 10 — and doubles
// as the correctness oracle the concurrent runtimes are compared against.
package seqtm

import (
	"sync"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// TM is the global-lock runtime.
type TM struct {
	heap *mem.Heap
	mu   sync.Mutex
	cnt  tm.Counters
}

// New returns a sequential TM over heap.
func New(heap *mem.Heap) *TM {
	return &TM{heap: heap}
}

// Name implements tm.TM.
func (s *TM) Name() string { return "seq" }

// Heap implements tm.TM.
func (s *TM) Heap() *mem.Heap { return s.heap }

// Stats implements tm.TM.
func (s *TM) Stats() tm.Stats { return s.cnt.Snapshot() }

// Close implements tm.TM.
func (s *TM) Close() {}

type txn struct {
	s    *TM
	done bool
}

// Begin implements tm.TM: it takes the global lock, so at most one
// transaction runs at a time.
func (s *TM) Begin(int) (tm.Txn, error) {
	s.mu.Lock()
	s.cnt.OnStart()
	return &txn{s: s}, nil
}

// Commit implements tm.TM.
func (s *TM) Commit(t tm.Txn) error {
	x := t.(*txn)
	if !x.done {
		x.done = true
		x.s.cnt.OnCommit(false)
		x.s.mu.Unlock()
	}
	return nil
}

// Abort implements tm.TM. Note that under the global lock nothing was
// speculative, so "abort" cannot undo the writes; sequential callers only
// abort on application errors where that is acceptable.
func (s *TM) Abort(t tm.Txn) {
	x := t.(*txn)
	if !x.done {
		x.done = true
		x.s.cnt.OnAbort(tm.CodeExplicit)
		x.s.mu.Unlock()
	}
}

// Read implements tm.Txn.
func (x *txn) Read(a mem.Addr) (mem.Word, error) {
	return x.s.heap.Load(a), nil
}

// Write implements tm.Txn.
func (x *txn) Write(a mem.Addr, v mem.Word) error {
	x.s.heap.Store(a, v)
	return nil
}

var _ tm.TM = (*TM)(nil)
