package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"
	"time"
)

// mkRecords builds n deterministic records starting at seq base.
func mkRecords(base uint64, n int) []Record {
	out := make([]Record, n)
	for i := range out {
		seq := base + uint64(i)
		out[i] = Record{
			Seq:        seq,
			ValidTS:    seq / 2,
			Reads:      []uint64{seq * 3, seq*3 + 1},
			WriteAddrs: []uint64{seq % 7, 100 + seq%5},
			WriteVals:  []uint64{seq, seq * 11},
		}
		if i%3 == 0 {
			out[i].Reads = nil // empty read sets must round-trip too
		}
	}
	return out
}

func sameRecord(a, b Record) bool {
	if a.Seq != b.Seq || a.ValidTS != b.ValidTS ||
		len(a.Reads) != len(b.Reads) || len(a.WriteAddrs) != len(b.WriteAddrs) {
		return false
	}
	for i := range a.Reads {
		if a.Reads[i] != b.Reads[i] {
			return false
		}
	}
	for i := range a.WriteAddrs {
		if a.WriteAddrs[i] != b.WriteAddrs[i] || a.WriteVals[i] != b.WriteVals[i] {
			return false
		}
	}
	return true
}

// encodeAll frames records into one byte stream, returning each record's
// end offset.
func encodeAll(recs []Record) (data []byte, ends []int) {
	for i := range recs {
		data = appendEncoded(data, &recs[i])
		ends = append(ends, len(data))
	}
	return data, ends
}

func TestRoundTrip(t *testing.T) {
	recs := mkRecords(0, 17)
	data, _ := encodeAll(recs)
	res, err := Replay(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(res.Records), len(recs))
	}
	if res.TornBytes != 0 || res.IntactBytes != int64(len(data)) {
		t.Fatalf("torn=%d intact=%d on a clean log of %d bytes", res.TornBytes, res.IntactBytes, len(data))
	}
	if res.NextSeq != 17 {
		t.Fatalf("NextSeq=%d, want 17", res.NextSeq)
	}
	for i := range recs {
		if !sameRecord(res.Records[i], recs[i]) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, res.Records[i], recs[i])
		}
	}
}

// TestTornTailEveryOffset is the torn-write recovery fuzz: a valid log
// truncated at EVERY byte offset must replay to exactly the records that
// fit wholly inside the truncation point — never a partial record, never
// a lost intact one.
func TestTornTailEveryOffset(t *testing.T) {
	recs := mkRecords(5, 12)
	data, ends := encodeAll(recs)
	for cut := 0; cut <= len(data); cut++ {
		want := 0
		for want < len(ends) && ends[want] <= cut {
			want++
		}
		res, err := Replay(data[:cut])
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(res.Records) != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(res.Records), want)
		}
		for i := 0; i < want; i++ {
			if !sameRecord(res.Records[i], recs[i]) {
				t.Fatalf("cut=%d: record %d corrupted in replay", cut, i)
			}
		}
		if wantIntact := int64(0); want > 0 {
			wantIntact = int64(ends[want-1])
			if res.IntactBytes != wantIntact {
				t.Fatalf("cut=%d: intact=%d want %d", cut, res.IntactBytes, wantIntact)
			}
		}
	}
}

// TestCorruptEveryByte flips one bit in every byte position in turn; the
// replayed records must always be an intact prefix of the originals (the
// checksum may cut the log short at the flipped record, never pass a
// corrupted one through).
func TestCorruptEveryByte(t *testing.T) {
	recs := mkRecords(0, 8)
	data, _ := encodeAll(recs)
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x10
		res, err := Replay(mut)
		if err != nil {
			// A flipped sequence field can decode as a valid-checksum...
			// no: the CRC covers the payload, so a flipped payload never
			// passes. A flipped length/CRC header fails the frame. The only
			// error path is a sequence gap, which a single bit flip cannot
			// fabricate without failing the CRC first.
			t.Fatalf("pos=%d: %v", pos, err)
		}
		for i, got := range res.Records {
			if i >= len(recs) || !sameRecord(got, recs[i]) {
				t.Fatalf("pos=%d: replay returned a non-prefix record at %d", pos, i)
			}
		}
	}
}

func TestReplaySequenceGap(t *testing.T) {
	recs := mkRecords(0, 3)
	recs[2].Seq = 7 // writer bug, not a crash artifact
	data, _ := encodeAll(recs)
	if _, err := Replay(data); err == nil {
		t.Fatal("expected a sequence-gap error")
	}
}

func TestLogAppendFlushRecover(t *testing.T) {
	dev := NewMemDevice(nil)
	l := Open(dev, 0, Options{FlushInterval: 100 * time.Microsecond})
	recs := mkRecords(0, 50)
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitDurable(50); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableSeq(); got != 50 {
		t.Fatalf("DurableSeq=%d, want 50", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 50 || res.NextSeq != 50 {
		t.Fatalf("recovered %d records next=%d, want 50/50", len(res.Records), res.NextSeq)
	}
	// Reopen at the recovered sequence and continue the history.
	l2 := Open(dev, res.NextSeq, Options{FlushInterval: 100 * time.Microsecond})
	more := mkRecords(50, 5)
	for i := range more {
		if err := l2.Append(&more[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	res2, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Records) != 55 {
		t.Fatalf("after reopen: %d records, want 55", len(res2.Records))
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	recs := mkRecords(0, 10)
	data, ends := encodeAll(recs)
	torn := append([]byte(nil), data[:ends[6]+5]...) // record 7 half-written
	dev := NewMemDevice(torn)
	res, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 7 || res.TornBytes != 5 {
		t.Fatalf("recovered %d records torn=%d, want 7/5", len(res.Records), res.TornBytes)
	}
	now, _ := dev.Contents()
	if !bytes.Equal(now, data[:ends[6]]) {
		t.Fatal("device not truncated to the intact prefix")
	}
}

// TestReplaySizesRecordsOnce: Replay allocates its record slice once, from
// a pass over the frame lengths, instead of growing it record by record. On
// an intact log the capacity is the record count; behind a torn tail — a
// half-written frame, or a whole frame whose checksum fails — it is at most
// one more.
func TestReplaySizesRecordsOnce(t *testing.T) {
	const n = 10000
	recs := mkRecords(0, n+1)
	data, ends := encodeAll(recs)
	intact := data[:ends[n-1]]
	badCRC := append([]byte(nil), data...)
	badCRC[ends[n-1]+4] ^= 0xFF
	for _, tc := range []struct {
		name  string
		data  []byte
		slack int
	}{
		{"intact", intact, 0},
		{"half-written tail", data[:ends[n]-5], 1},
		{"checksum-failed tail", badCRC, 1},
	} {
		res, err := Replay(tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Records) != n {
			t.Fatalf("%s: replayed %d records, want %d", tc.name, len(res.Records), n)
		}
		if c := cap(res.Records); c < n || c > n+tc.slack {
			t.Errorf("%s: cap(Records) = %d for %d records, want at most %d", tc.name, c, n, n+tc.slack)
		}
	}
}

func TestAppendSeqGapPanics(t *testing.T) {
	l := Open(NewMemDevice(nil), 0, Options{})
	defer l.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order append")
		}
	}()
	rec := Record{Seq: 3}
	_ = l.Append(&rec)
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "commit.wal")
	dev, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	l := Open(dev, 0, Options{FlushInterval: 200 * time.Microsecond})
	recs := mkRecords(0, 20)
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	dev2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	res, err := Recover(dev2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 20 {
		t.Fatalf("file recovery: %d records, want 20", len(res.Records))
	}
	for i := range recs {
		if !sameRecord(res.Records[i], recs[i]) {
			t.Fatalf("file recovery: record %d mismatch", i)
		}
	}

	// The file is opened O_APPEND: after a truncation the next append lands
	// at the cut, not at the old end of file.
	data, ends := encodeAll(recs)
	cut := int64(ends[9])
	if err := dev2.Truncate(cut); err != nil {
		t.Fatal(err)
	}
	tail := []byte("appended after the cut")
	if err := dev2.Append(tail); err != nil {
		t.Fatal(err)
	}
	got, err := dev2.Contents()
	if err != nil {
		t.Fatal(err)
	}
	if want := append(data[:cut:cut], tail...); !bytes.Equal(got, want) {
		t.Fatalf("after Truncate(%d) and a %d-byte append the file holds %d bytes, want %d",
			cut, len(tail), len(got), len(want))
	}
}

// TestMemDeviceAgainstModel drives random Append/Truncate sequences through
// a MemDevice seeded with more than one chunk and checks Contents and Size
// against a plain byte slice after every operation. The mix covers empty
// appends, appends spanning several chunks, and cuts to 0, to chunk
// boundaries and to Size(); every appended buffer is overwritten right
// after the call, since a Device may not keep it.
func TestMemDeviceAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	pool := make([]byte, 4*memChunk)
	for i := 0; i < len(pool); i += 8 {
		binary.LittleEndian.PutUint64(pool[i:], rng.Uint64())
	}
	fill := func(n int) []byte {
		off := rng.IntN(len(pool) - n + 1)
		return append([]byte(nil), pool[off:off+n]...)
	}
	initial := fill(memChunk + memChunk/2 + 3)
	model := append([]byte(nil), initial...)
	dev := NewMemDevice(initial)
	clear(initial)
	check := func(op string) {
		t.Helper()
		if n, _ := dev.Size(); n != int64(len(model)) {
			t.Fatalf("after %s: Size %d, want %d", op, n, len(model))
		}
		got, _ := dev.Contents()
		if !bytes.Equal(got, model) {
			t.Fatalf("after %s: Contents differ from the model (%d bytes, want %d)", op, len(got), len(model))
		}
	}
	check("NewMemDevice")
	for i := 0; i < 300; i++ {
		var op string
		switch k := rng.IntN(10); {
		case k < 6:
			var n int
			switch rng.IntN(4) {
			case 0:
				n = 0
			case 1:
				n = rng.IntN(64)
			case 2:
				n = rng.IntN(64 << 10)
			default:
				n = memChunk + rng.IntN(2*memChunk) // spans two or three chunks
			}
			if len(model) > 6*memChunk {
				n = rng.IntN(64)
			}
			p := fill(n)
			model = append(model, p...)
			if err := dev.Append(p); err != nil {
				t.Fatal(err)
			}
			clear(p)
			op = fmt.Sprintf("op %d: Append(%d bytes)", i, n)
		default:
			var n int
			switch rng.IntN(4) {
			case 0:
				n = 0
			case 1:
				n = rng.IntN(len(model)/memChunk+1) * memChunk // a chunk boundary
			case 2:
				n = len(model)
			default:
				n = rng.IntN(len(model) + 1)
			}
			if err := dev.Truncate(int64(n)); err != nil {
				t.Fatal(err)
			}
			model = model[:n]
			op = fmt.Sprintf("op %d: Truncate(%d)", i, n)
		}
		check(op)
	}
	if err := dev.Truncate(int64(len(model)) + 1); err == nil {
		t.Fatal("Truncate past Size succeeded")
	}
	if err := dev.Truncate(-1); err == nil {
		t.Fatal("Truncate(-1) succeeded")
	}
	check("rejected truncations")
}

func TestConcurrentWaitDurable(t *testing.T) {
	dev := NewMemDevice(nil)
	l := Open(dev, 0, Options{FlushInterval: 50 * time.Microsecond})
	defer l.Close()
	const n = 200
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		rec := Record{Seq: uint64(i), WriteAddrs: []uint64{uint64(i)}, WriteVals: []uint64{1}}
		if err := l.Append(&rec); err != nil {
			t.Fatal(err)
		}
		go func(seq uint64) { errs <- l.WaitDurable(seq) }(uint64(i + 1))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if l.DurableSeq() != n {
		t.Fatalf("DurableSeq=%d, want %d", l.DurableSeq(), n)
	}
}

func TestStats(t *testing.T) {
	l := Open(NewMemDevice(nil), 0, Options{})
	rec := Record{Seq: 0, WriteAddrs: []uint64{1}, WriteVals: []uint64{2}}
	if err := l.Append(&rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != 1 || st.DurableSeq != 1 || st.Bytes == 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&rec); err != ErrClosed {
		t.Fatalf("append on closed log: %v, want ErrClosed", err)
	}
}

func TestMaxRecordGuard(t *testing.T) {
	// A length header pointing far past the data must read as a torn tail,
	// not a crash or a huge allocation.
	data := make([]byte, headerSize)
	data[0] = 0xff
	data[1] = 0xff
	data[2] = 0xff
	data[3] = 0x7f
	res, err := Replay(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 || res.TornBytes != int64(len(data)) {
		t.Fatalf("giant-length frame must be torn tail, got %+v", res)
	}
}

func ExampleReplay() {
	var data []byte
	for seq := uint64(0); seq < 3; seq++ {
		data = appendEncoded(data, &Record{Seq: seq, WriteAddrs: []uint64{seq}, WriteVals: []uint64{seq * 10}})
	}
	res, _ := Replay(append(data, 0xde, 0xad)) // two torn bytes at the tail
	fmt.Println(len(res.Records), res.NextSeq, res.TornBytes)
	// Output: 3 3 2
}

// TestReusedBufferRecoversByteIdentical appends records of varied sizes
// across several Sync-forced flushes — so later batches are encoded into
// buffers earlier batches were written from — and checks that the device
// holds exactly the encoding of every record, in order.
func TestReusedBufferRecoversByteIdentical(t *testing.T) {
	dev := NewMemDevice(nil)
	l := Open(dev, 0, Options{FlushInterval: time.Hour})
	var recs []Record
	seq := uint64(0)
	for flush, n := range []int{40, 3, 25, 1, 60} {
		for i := 0; i < n; i++ {
			// Sizes cycle from an empty record to 37 reads and 19 writes,
			// so a batch can be shorter or longer than the buffer it
			// reuses.
			r := Record{Seq: seq, ValidTS: seq ^ uint64(flush)}
			for j := 0; j < int(seq*7%38); j++ {
				r.Reads = append(r.Reads, seq<<8|uint64(j))
			}
			for j := 0; j < int(seq*5%20); j++ {
				r.WriteAddrs = append(r.WriteAddrs, seq<<16|uint64(j))
				r.WriteVals = append(r.WriteVals, ^seq+uint64(j))
			}
			recs = append(recs, r)
			if err := l.Append(&recs[len(recs)-1]); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dev.Contents()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := encodeAll(recs)
	if !bytes.Equal(got, want) {
		t.Fatalf("device holds %d bytes, want the %d-byte encoding of %d records", len(got), len(want), len(recs))
	}
	res, err := Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(res.Records), len(recs))
	}
	for i := range recs {
		if !sameRecord(res.Records[i], recs[i]) {
			t.Fatalf("record %d: recovered %+v, want %+v", i, res.Records[i], recs[i])
		}
	}
}

// retainingDevice breaks the Device contract on purpose: it keeps the
// slice Append was handed and, at the next Append, checks that nobody
// wrote into it since. A Log that encodes new records into a batch the
// device may still be using fails the check.
type retainingDevice struct {
	MemDevice
	held, copy []byte
	appends    int
	err        error
}

func (d *retainingDevice) Append(p []byte) error {
	if d.held != nil && !bytes.Equal(d.held, d.copy) && d.err == nil {
		d.err = fmt.Errorf("batch of append %d was rewritten before append %d", d.appends, d.appends+1)
	}
	d.appends++
	d.held, d.copy = p, append(d.copy[:0], p...)
	return d.MemDevice.Append(p)
}

func TestLogDoesNotWriteIntoHandedOverBatch(t *testing.T) {
	dev := &retainingDevice{}
	l := Open(dev, 0, Options{FlushInterval: time.Hour})
	recs := mkRecords(0, 60)
	for i := range recs {
		if err := l.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if dev.appends < 6 {
		t.Fatalf("only %d device appends, want 6 flushes", dev.appends)
	}
	if dev.err != nil {
		t.Fatal(dev.err)
	}
}
