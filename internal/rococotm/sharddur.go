package rococotm

import (
	"fmt"

	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/wal"
)

// This file is sharded recovery: one WAL per shard, rebuilt into one
// Sharded runtime. Per-shard recovery is exactly RecoverDurable —
// addresses are partitioned, so each shard's replay touches disjoint
// heap words — but the logs must first be reconciled against each
// other: a crash can leave a committing cross-shard transaction durable
// on some of its shards and torn off the tail of others, and replaying
// such a half would break atomicity.
//
// Reconciliation finds, per shard, the longest record prefix such that
// every cross-shard commit inside any kept prefix (XID != 0) has its
// record present within the kept prefix of every shard in its XShards
// mask. A record that fails the test — and, because a shard's history
// is a strict prefix, everything after it on its shard — is cut. Cuts
// can cascade (cutting shard A may orphan a later cross record kept on
// shard B), so the check iterates to a fixpoint; cuts only ever
// shrink, so it terminates.
//
// The commit path's cross-log barrier (commitCross phase 4: all touched
// logs durable before any GlobalTS advances, with every touched shard's
// publication turn held) keeps this cheap in practice: nothing can be
// appended after a cross-shard record on any touched shard until that
// record is durable everywhere, so a torn cross-shard commit is always
// the last record of its shard's log and a cut never removes an
// acknowledged commit. The fixpoint handles the general shape anyway —
// it is recovery code, it should not trust the writer.
//
// Aborted cross-shard attempts need no reconciliation: their no-op
// fills carry XID=0 (fillClaimed) and are indistinguishable from empty
// single-shard commits, which is semantically exact.

// ShardRecovery is RecoverSharded's per-shard result plus the global
// reconciliation outcome.
type ShardRecovery struct {
	// Durables plug into ShardedConfig.Durables, one per shard.
	Durables []*Durable
	// Results are the per-shard replay results after reconciliation:
	// Records holds the kept prefix, TornBytes includes reconciliation
	// cuts.
	Results []*wal.ReplayResult
	// CutRecords counts records discarded by cross-log reconciliation
	// (beyond each log's own torn tail).
	CutRecords int
	// MaxXID is the largest cross-shard transaction id in the kept
	// prefixes; pass it to ShardedConfig.NextXID so recovered ids are
	// never reused.
	MaxXID uint64
}

// RecoverSharded rebuilds one durability binding per shard from devs, as
// a process restart would: per-shard torn-tail truncation, cross-log
// reconciliation (above) with physical truncation of cut records, then
// a per-shard store+heap replay in publication order. The heap must be
// in its pre-crash initial state.
func RecoverSharded(devs []wal.Device, heap *mem.Heap, opts wal.Options, storeCfg mvstore.Config, syncCommit bool) (*ShardRecovery, error) {
	n := len(devs)
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("rococotm: recover: %d shards out of range [1,64]", n)
	}
	results := make([]*wal.ReplayResult, n)
	for i, dev := range devs {
		res, err := wal.Recover(dev)
		if err != nil {
			return nil, fmt.Errorf("rococotm: recover shard %d: %w", i, err)
		}
		if len(res.Records) > 0 && res.Records[0].Seq != 0 {
			return nil, fmt.Errorf("rococotm: recover shard %d: log starts at seq %d, not 0 (checkpointing unsupported)",
				i, res.Records[0].Seq)
		}
		results[i] = res
	}

	// Reconcile: cut[i] is the number of records kept on shard i. An
	// xid is "present within the cut of shard j" iff some record in
	// records[j][:cut[j]] carries it; shrink any shard whose prefix
	// references an xid that is missing (or cut) on a peer, and iterate
	// to a fixpoint.
	cut := make([]int, n)
	for i, res := range results {
		cut[i] = len(res.Records)
	}
	xidAt := make([]map[uint64]int, n) // shard → xid → first record index
	for i, res := range results {
		m := map[uint64]int{}
		for k := range res.Records {
			if x := res.Records[k].XID; x != 0 {
				if _, seen := m[x]; !seen {
					m[x] = k
				}
			}
		}
		xidAt[i] = m
	}
	present := func(xid uint64, shard int) bool {
		k, ok := xidAt[shard][xid]
		return ok && k < cut[shard]
	}
	cutRecords := 0
	for changed := true; changed; {
		changed = false
		for i, res := range results {
			for k := 0; k < cut[i]; k++ {
				rec := &res.Records[k]
				if rec.XID == 0 {
					continue
				}
				torn := false
				for j := 0; j < n; j++ {
					if rec.XShards&(1<<uint(j)) != 0 && !present(rec.XID, j) {
						torn = true
						break
					}
				}
				if torn {
					cutRecords += cut[i] - k
					cut[i] = k
					changed = true
					break
				}
			}
		}
	}

	// Physically truncate the cut records so the reopened logs append
	// cleanly after the kept prefix, and shrink the replay results to
	// match.
	var maxXID uint64
	for i, res := range results {
		if cut[i] < len(res.Records) {
			var keep int64
			for k := 0; k < cut[i]; k++ {
				keep += int64(res.Records[k].EncodedSize())
			}
			if err := devs[i].Truncate(keep); err != nil {
				return nil, fmt.Errorf("rococotm: recover shard %d: truncating reconciled tail: %w", i, err)
			}
			res.TornBytes += res.IntactBytes - keep
			res.IntactBytes = keep
			res.Records = res.Records[:cut[i]]
			res.NextSeq = 0
			if cut[i] > 0 {
				res.NextSeq = res.Records[cut[i]-1].Seq + 1
			}
		}
		for k := range res.Records {
			if x := res.Records[k].XID; x > maxXID {
				maxXID = x
			}
		}
	}

	// Per-shard replay over the now-consistent prefixes. Shards own disjoint
	// addresses, so replay order across shards is irrelevant.
	durables := make([]*Durable, n)
	for i, res := range results {
		d, err := replay(devs[i], res, heap, opts, storeCfg, syncCommit)
		if err != nil {
			return nil, err
		}
		durables[i] = d
	}
	return &ShardRecovery{
		Durables:   durables,
		Results:    results,
		CutRecords: cutRecords,
		MaxXID:     maxXID,
	}, nil
}
