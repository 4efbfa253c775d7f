package rococotm

import (
	"errors"
	"fmt"

	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// This file is the durability half of the runtime: every committed write
// transaction is drained, at its ordered publication point, into a
// group-commit write-ahead log and a multi-version store.
//
// The hook is a sink of the publication stage (pipeline.go publish), right
// after the CommitObserver call: the stage runs one commit at a time, in
// sequence order, before GlobalTS passes it. That makes the WAL
// publication-ordered by construction — recovery is a single forward replay,
// no sorting, no holes (every claimed sequence reaches publication, so the
// stream the hook sees has no gaps). The
// multi-version store is fed in the same breath, before the commit's own
// write-back touches the heap, which is what makes its base-value capture
// sound (see the mvstore package comment).

// Durable binds a runtime to its durability backends. Build one by hand
// over empty backends, or with RecoverDurable to resume from an existing
// log.
type Durable struct {
	// Log receives one record per committed write transaction, appended in
	// publication order. The runtime owns it from New onward and closes it
	// in TM.Close.
	Log *wal.Log
	// Store receives the same write-sets, keyed by publication sequence;
	// read-only snapshot transactions are served from it.
	Store *mvstore.Store
	// SyncCommit makes Commit wait until its record is fsync-durable
	// before returning (group commit still batches the fsyncs; the wait is
	// outside the ordered section, so committers overlap). When false,
	// commits return as soon as the record is buffered and a crash may
	// lose the most recent flush interval's worth of commits.
	SyncCommit bool
}

// ErrNotDurable marks a commit that published in memory but whose WAL
// record could not be confirmed durable (sticky log failure). The
// transaction IS committed — callers must not retry it — but it may not
// survive a crash.
var ErrNotDurable = errors.New("rococotm: commit published but durability unconfirmed")

// errNoStore refuses a snapshot. It is built once: every read-only
// transaction on a runtime without a store is refused.
var errNoStore = errors.New("rococotm: no durable store configured")

// durableState is the runtime-side binding: the shared scratch is safe
// because the publication stage runs one commit at a time.
type durableState struct {
	d      *Durable
	rec    wal.Record
	addrs  []mem.Addr // the publication's written addresses, for the store
	vals64 []uint64   // their values, for the WAL record
}

// durableAppend drains one publication into the log and the store.
func (r *TM) durableAppend(seq uint64, p *publication) {
	ds := r.dur
	ds.addrs, ds.vals64 = ds.addrs[:0], ds.vals64[:0]
	for i, a := range p.writes {
		ds.addrs = append(ds.addrs, mem.Addr(a))
		ds.vals64 = append(ds.vals64, uint64(p.vals[i]))
	}
	ds.rec = wal.Record{Seq: seq, ValidTS: p.validTS, Reads: p.reads,
		WriteAddrs: p.writes, WriteVals: ds.vals64}
	// The log copies the record into its buffer synchronously, so the
	// scratch slices are free for reuse when Append returns. A sticky log
	// failure is surfaced to SyncCommit waiters via WaitDurable; the
	// in-memory commit proceeds regardless — it is already published.
	_ = ds.d.Log.Append(&ds.rec)
	ds.d.Store.ApplyUpdates(seq, ds.addrs, p.vals)
}

// DurableStats reports the durability backends' counters; ok is false when
// the runtime has no Durable configured.
type DurableStats struct {
	WAL   wal.Stats
	Store mvstore.Stats
}

// DurableStats returns the durability counters.
func (r *TM) DurableStats() (DurableStats, bool) {
	if r.dur == nil {
		return DurableStats{}, false
	}
	return DurableStats{
		WAL:   r.dur.d.Log.Stats(),
		Store: r.dur.d.Store.Stats(),
	}, true
}

// Durable exposes the configured durability binding (nil if none).
func (r *TM) Durable() *Durable {
	if r.dur == nil {
		return nil
	}
	return r.dur.d
}

// RetrieveSnapshot implements tm.Snapshotter: it pins the multi-version
// store at the current commit height. It fails only when the runtime has
// no durable store — tm.RunReadOnly then falls back to a transactional
// read-only execution.
func (r *TM) RetrieveSnapshot() (tm.Snapshot, error) {
	if r.dur == nil {
		return nil, errNoStore
	}
	return r.dur.d.Store.RetrieveSnapshot(), nil
}

// ReleaseSnapshot implements tm.Snapshotter.
func (r *TM) ReleaseSnapshot(s tm.Snapshot) {
	sn, ok := s.(*mvstore.Snapshot)
	if !ok || r.dur == nil {
		panic("rococotm: ReleaseSnapshot of a snapshot this runtime did not issue")
	}
	r.dur.d.Store.ReleaseSnapshot(sn)
}

// RecoverDurable rebuilds durable state from dev, as a process restart
// would: truncate the torn tail off the log, replay every intact record —
// into a fresh multi-version store first, then into the heap — in
// publication order, and reopen the log at the next sequence. Store before
// heap, record by record: ApplyUpdates captures the pre-write base from the
// heap, the same ordering the live commit path guarantees. The returned
// Durable plugs into Config.Durable; New then reseeds GlobalTS and the
// engine window at the recovered height. The replay result is returned
// alongside so callers can certify the recovered commit stream
// (internal/audit) or assert on the torn tail.
//
// The heap must be in its pre-crash initial state (recovery replays every
// write since the log began; log checkpointing is future work, so a log
// whose first record is not sequence 0 is rejected).
func RecoverDurable(dev wal.Device, heap *mem.Heap, opts wal.Options, storeCfg mvstore.Config, syncCommit bool) (*Durable, *wal.ReplayResult, error) {
	res, err := wal.Recover(dev)
	if err != nil {
		return nil, nil, fmt.Errorf("rococotm: recover: %w", err)
	}
	if len(res.Records) > 0 && res.Records[0].Seq != 0 {
		return nil, nil, fmt.Errorf("rococotm: recover: log starts at seq %d, not 0 (checkpointing unsupported)",
			res.Records[0].Seq)
	}
	store, err := mvstore.New(heap, storeCfg)
	if err != nil {
		return nil, nil, err
	}
	var addrs []mem.Addr
	var vals []mem.Word
	for i := range res.Records {
		rec := &res.Records[i]
		addrs = addrs[:0]
		vals = vals[:0]
		for j, a := range rec.WriteAddrs {
			addrs = append(addrs, mem.Addr(a))
			vals = append(vals, mem.Word(rec.WriteVals[j]))
		}
		store.ApplyUpdates(rec.Seq, addrs, vals)
		for j, a := range addrs {
			heap.Store(a, vals[j])
		}
	}
	return &Durable{Log: wal.Open(dev, res.NextSeq, opts), Store: store, SyncCommit: syncCommit}, res, nil
}

var _ tm.Snapshotter = (*TM)(nil)
