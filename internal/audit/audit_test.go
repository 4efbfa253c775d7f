package audit

import (
	"strings"
	"sync"
	"testing"
)

// A well-behaved serial stream — every snapshot current at commit — must
// certify clean with zero backward edges and zero graph searches.
func TestSerialStreamCertifiesClean(t *testing.T) {
	a := New(Config{})
	for seq := uint64(0); seq < 200; seq++ {
		a.Observe(Record{
			Seq:     seq,
			ValidTS: seq,
			Reads:   []uint64{seq % 7},
			Writes:  []uint64{seq % 5},
		})
	}
	if err := a.Err(); err != nil {
		t.Fatalf("Err() = %v on a serial stream", err)
	}
	st := a.Stats()
	if st.Observed != 200 {
		t.Fatalf("Observed = %d", st.Observed)
	}
	if st.BackEdges != 0 || st.Searches != 0 {
		t.Fatalf("serial stream produced back-edges/searches = %d/%d", st.BackEdges, st.Searches)
	}
	if st.Edges == 0 {
		t.Fatal("no dependency edges recorded despite overlapping footprints")
	}
}

// A ROCoCo-style backward reordering — a reader serialized into the past
// of an already-committed writer — is legal on its own: one backward WAR
// edge, one search, no violation.
func TestBackwardWARAloneIsLegal(t *testing.T) {
	a := New(Config{})
	a.Observe(Record{Seq: 0, ValidTS: 0, Writes: []uint64{1}})
	// Snapshot 0 predates writer 0: the engine ordered this reader before
	// it (read the initial version), which is fine absent a return path.
	a.Observe(Record{Seq: 1, ValidTS: 0, Reads: []uint64{1}, Writes: []uint64{2}})
	st := a.Stats()
	if st.BackEdges != 1 || st.Searches != 1 {
		t.Fatalf("back-edges/searches = %d/%d, want 1/1", st.BackEdges, st.Searches)
	}
	if st.Violations != 0 {
		t.Fatalf("legal reordering flagged: %v", a.Violations())
	}
	if err := a.Err(); err != nil {
		t.Fatal(err)
	}
}

// The canonical unserializable pair — each transaction reads what the
// other wrote, both from the same snapshot — must be flagged exactly once,
// with the cycle members reported in edge order.
func TestSeededCycleFlaggedOnce(t *testing.T) {
	a := New(Config{})
	a.Observe(Record{Seq: 0, ValidTS: 0, Reads: []uint64{1}, Writes: []uint64{2}})
	a.Observe(Record{Seq: 1, ValidTS: 0, Reads: []uint64{2}, Writes: []uint64{1}})
	st := a.Stats()
	if st.Violations != 1 {
		t.Fatalf("Violations = %d, want 1", st.Violations)
	}
	v := a.Violations()
	if len(v) != 1 || v[0].Seq != 1 {
		t.Fatalf("violation detail = %+v", v)
	}
	if len(v[0].Cycle) != 2 || v[0].Cycle[0] != 1 || v[0].Cycle[1] != 0 {
		t.Fatalf("cycle = %v, want [1 0]", v[0].Cycle)
	}
	if err := a.Err(); err == nil || !strings.Contains(err.Error(), "violation") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestSelfTest(t *testing.T) {
	if err := SelfTest(); err != nil {
		t.Fatal(err)
	}
}

// A commit-sequence gap means the observer contract broke: the verdict
// must degrade (the missing commits were never audited), and the window
// must restart cleanly after the gap.
func TestGapRestartsWindow(t *testing.T) {
	a := New(Config{})
	a.Observe(Record{Seq: 0, ValidTS: 0, Writes: []uint64{1}})
	a.Observe(Record{Seq: 5, ValidTS: 5, Writes: []uint64{1}})
	st := a.Stats()
	if st.Gaps != 1 {
		t.Fatalf("Gaps = %d, want 1", st.Gaps)
	}
	if err := a.Err(); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("Err() = %v", err)
	}
	// Post-gap stream continues without fresh trouble.
	for seq := uint64(6); seq < 20; seq++ {
		a.Observe(Record{Seq: seq, ValidTS: seq, Reads: []uint64{1}, Writes: []uint64{1}})
	}
	if st := a.Stats(); st.Gaps != 1 || st.Violations != 0 {
		t.Fatalf("post-gap stats: %+v", st)
	}
}

// A snapshot older than the audit window cannot be checked against
// evicted writers; the auditor must report itself unsound rather than
// certify blindly.
func TestHorizonBreachCounted(t *testing.T) {
	a := New(Config{})
	a.span = 2
	for seq := uint64(0); seq < 5; seq++ {
		a.Observe(Record{Seq: seq, ValidTS: seq, Writes: []uint64{seq}})
	}
	// Window now holds seqs {3,4}; a snapshot at 0 is beyond the horizon.
	a.Observe(Record{Seq: 5, ValidTS: 0, Reads: []uint64{0}})
	if st := a.Stats(); st.HorizonBreaches != 1 {
		t.Fatalf("HorizonBreaches = %d, want 1", st.HorizonBreaches)
	}
	if err := a.Err(); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("Err() = %v", err)
	}
}

// Window eviction keeps long streams cheap without losing the ability to
// catch a cycle among recent commits.
func TestEvictionPreservesRecentDetection(t *testing.T) {
	a := New(Config{})
	a.span = 4
	seq := uint64(0)
	for ; seq < 100; seq++ {
		a.Observe(Record{Seq: seq, ValidTS: seq, Reads: []uint64{seq % 3}, Writes: []uint64{seq % 3}})
	}
	if st := a.Stats(); st.Violations != 0 {
		t.Fatalf("clean stream flagged after eviction churn: %+v", st)
	}
	// Inject the bad pair on fresh locations at the tail.
	a.Observe(Record{Seq: seq, ValidTS: seq, Reads: []uint64{100}, Writes: []uint64{200}})
	a.Observe(Record{Seq: seq + 1, ValidTS: seq, Reads: []uint64{200}, Writes: []uint64{100}})
	if st := a.Stats(); st.Violations != 1 {
		t.Fatalf("Violations = %d, want 1 (eviction must not blind the checker)", st.Violations)
	}
}

// History and Trace rebuild the run for the offline checkers.
func TestHistoryAndTraceExport(t *testing.T) {
	a := New(Config{KeepHistory: true})
	a.Observe(Record{Seq: 0, ValidTS: 0, Writes: []uint64{7}})
	a.Observe(Record{Seq: 1, ValidTS: 1, Reads: []uint64{7}, Writes: []uint64{8}})
	a.Observe(Record{Seq: 2, ValidTS: 2, Reads: []uint64{7, 8}, Writes: []uint64{9}})

	h, err := a.History()
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := h.Serializable()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("offline checker rejects a serial history")
	}
	if got := h.Txns[1].Reads["x7"]; got != "t0" {
		t.Fatalf("t1 read of x7 resolved to %q, want t0", got)
	}
	if got := h.Txns[2].Reads["x8"]; got != "t1" {
		t.Fatalf("t2 read of x8 resolved to %q, want t1", got)
	}

	tr, err := a.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 3 {
		t.Fatalf("trace length = %d", len(tr))
	}
	if len(tr[2].Reads) != 2 || tr[2].Reads[0] != 7 || tr[2].Reads[1] != 8 {
		t.Fatalf("trace txn 2 reads = %v", tr[2].Reads)
	}

	// Without KeepHistory both exports refuse rather than return a
	// partial (windowed) run.
	b := New(Config{})
	if _, err := b.History(); err == nil {
		t.Fatal("History without KeepHistory did not error")
	}
	if _, err := b.Trace(); err == nil {
		t.Fatal("Trace without KeepHistory did not error")
	}
}

// ObserveCommit receives the runtime's recycled scratch slices and must
// copy them before they are reused.
func TestObserveCommitCopiesScratchSlices(t *testing.T) {
	a := New(Config{KeepHistory: true})
	reads := []uint64{7}
	writes := []uint64{8}
	a.ObserveCommit(0, 0, reads, writes)
	reads[0], writes[0] = 999, 888 // runtime recycles the scratch
	a.ObserveCommit(1, 1, []uint64{8}, nil)

	h, err := a.History()
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Txns[1].Reads["x8"]; got != "t0" {
		t.Fatalf("t1's read resolved to %q; the auditor aliased recycled scratch", got)
	}
}

// Stats/Err readers race the observer in production (watchdog logging,
// periodic health checks); the -race lane keeps this honest.
func TestConcurrentStatsReaders(t *testing.T) {
	a := New(Config{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for seq := uint64(0); seq < 500; seq++ {
			a.Observe(Record{Seq: seq, ValidTS: seq, Reads: []uint64{seq % 3}, Writes: []uint64{seq % 5}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = a.Stats()
			_ = a.Err()
			_ = a.Violations()
		}
	}()
	wg.Wait()
	if st := a.Stats(); st.Observed != 500 || st.Violations != 0 {
		t.Fatalf("stats after concurrent load: %+v", st)
	}
}
