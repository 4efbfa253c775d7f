package fpga

import (
	"testing"

	"rococotm/internal/core"
)

// TestRecordFastClaimsSequences verifies direct fast-path inserts share
// the sequence space with engine-validated commits.
func TestRecordFastClaimsSequences(t *testing.T) {
	e, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	v, err := e.RecordFast(1, []uint64{10}, []uint64{20})
	if err != nil || !v.OK || v.Seq != 0 {
		t.Fatalf("first RecordFast = %+v, %v", v, err)
	}
	// An engine-validated commit claims the next sequence.
	pv := e.Process(Request{Token: 2, ValidTS: 1, ReadAddrs: []uint64{30}, WriteAddrs: []uint64{40}})
	if !pv.OK || pv.Seq != 1 {
		t.Fatalf("Process after RecordFast = %+v", pv)
	}
	v, err = e.RecordFast(3, nil, []uint64{50})
	if err != nil || !v.OK || v.Seq != 2 {
		t.Fatalf("second RecordFast = %+v, %v", v, err)
	}
	if e.NextSeq() != core.Seq(3) {
		t.Fatalf("NextSeq = %d, want 3", e.NextSeq())
	}
}

// TestRecordFastVisibleToValidation builds the cross-path write skew:
// a fast transaction reads Y/writes X; a slow transaction that read X
// before the fast commit and writes Y must fail validation — the exact
// cycle that would be invisible if fast commits skipped the window.
func TestRecordFastVisibleToValidation(t *testing.T) {
	e, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const X, Y = 100, 200
	v, err := e.RecordFast(1, []uint64{Y}, []uint64{X})
	if err != nil || !v.OK {
		t.Fatalf("RecordFast = %+v, %v", v, err)
	}
	// The slow transaction's snapshot (ValidTS 0) predates the fast commit:
	// it did not see X's new value, yet the fast commit read the Y it is
	// about to overwrite. Forward edge (fast wrote its read set member X)
	// plus backward edge (fast read its write set member Y) = cycle.
	pv := e.Process(Request{Token: 2, ValidTS: 0, ReadAddrs: []uint64{X}, WriteAddrs: []uint64{Y}})
	if pv.OK {
		t.Fatal("write-skew partner validated despite fast commit in window")
	}
	if pv.Reason != ReasonCycle {
		t.Fatalf("reason = %v, want cycle", pv.Reason)
	}
}

// TestRecordFastRefusals pins the refusal mode — a closed engine — and the
// rebase: after Restart, fast claims resume at the supplied sequence.
func TestRecordFastRefusals(t *testing.T) {
	e, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Close()
	if _, err := e.RecordFast(1, nil, []uint64{1}); err != ErrClosed {
		t.Fatalf("closed RecordFast err = %v", err)
	}
	e.Restart(7)
	v, err := e.RecordFast(2, nil, []uint64{1})
	if err != nil || !v.OK || v.Seq != 7 {
		t.Fatalf("post-restart RecordFast = %+v, %v", v, err)
	}
}
