// Package wal is the write-ahead log behind the durable commit pipeline:
// every committed write transaction is appended — at its publication
// point, so the log is in publication order by construction — as one
// checksummed, length-prefixed record stamped with the commit sequence,
// and a group-commit flusher makes batches of records durable with a
// single fsync.
//
// Record format (little-endian):
//
//	u32 payload length        u32 CRC-32C of payload
//	payload:
//	  u64 seq                 u64 validTS
//	  u32 nReads              u32 nWrites
//	  nReads  × u64 read address
//	  nWrites × (u64 write address, u64 value)
//
// The read footprint rides along so a recovered stream can be handed to
// the serializability auditor (internal/audit), not just replayed into
// state.
//
// Crash consistency is prefix-shaped: recovery scans the log from the
// start and stops at the first record whose header is incomplete, whose
// length is implausible, whose payload is truncated, or whose checksum
// fails — everything before that point is the intact prefix, everything
// after is the torn tail a crash (or a lying disk) left behind and is
// truncated away. Because appends happen in publication order and a
// group flush covers a contiguous range of sequences, the intact prefix
// is always a contiguous commit history: a sequence gap inside it is a
// writer bug, not a crash artifact, and Replay reports it as an error.
//
// Devices: a FileDevice flush is one write(2) to a file opened O_APPEND
// plus the fsync. MemDevice, the disk of the tests and of the benchmark's
// durable workload, is priced like one: an Append costs O(len(p)) however
// long the log has grown, since its bytes sit in fixed 1 MiB chunks and
// are never moved once written.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// headerSize is the per-record framing overhead: u32 length + u32 CRC.
const headerSize = 8

// payloadFixed is the fixed part of a payload: seq, validTS, two counts.
const payloadFixed = 8 + 8 + 4 + 4

// MaxRecordBytes bounds a single record's payload; a length header above
// it is treated as corruption (a torn length field must not send the
// scanner a gigabyte past the end of the log).
const MaxRecordBytes = 1 << 24

// castagnoli is the CRC-32C table (the checksum SSDs and filesystems use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one committed write transaction as the log stores it.
type Record struct {
	// Seq is the commit's publication sequence; records in a log carry
	// strictly contiguous, increasing sequences.
	Seq uint64
	// ValidTS is the snapshot the engine validated the read set against —
	// retained so recovery can re-certify serializability.
	ValidTS uint64
	// Reads is the read footprint (addresses).
	Reads []uint64
	// WriteAddrs and WriteVals are the write footprint, index-paired.
	WriteAddrs []uint64
	WriteVals  []uint64
}

// encodedLen returns the payload length of r.
func (r *Record) encodedLen() int {
	return payloadFixed + 8*len(r.Reads) + 16*len(r.WriteAddrs)
}

// appendEncoded appends r's framed encoding (header + payload) to buf.
func appendEncoded(buf []byte, r *Record) []byte {
	plen := r.encodedLen()
	start := len(buf)
	buf = append(buf, make([]byte, headerSize+plen)...)
	p := buf[start+headerSize:]
	binary.LittleEndian.PutUint64(p[0:], r.Seq)
	binary.LittleEndian.PutUint64(p[8:], r.ValidTS)
	binary.LittleEndian.PutUint32(p[16:], uint32(len(r.Reads)))
	binary.LittleEndian.PutUint32(p[20:], uint32(len(r.WriteAddrs)))
	off := payloadFixed
	for _, a := range r.Reads {
		binary.LittleEndian.PutUint64(p[off:], a)
		off += 8
	}
	for i, a := range r.WriteAddrs {
		binary.LittleEndian.PutUint64(p[off:], a)
		binary.LittleEndian.PutUint64(p[off+8:], r.WriteVals[i])
		off += 16
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(plen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(p, castagnoli))
	return buf
}

// decodeOne decodes the record at data[off:]. ok=false means the bytes at
// off do not hold an intact record — the torn-tail condition, never an
// error: the scanner stops there.
func decodeOne(data []byte, off int) (rec Record, next int, ok bool) {
	if off+headerSize > len(data) {
		return Record{}, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(data[off:]))
	if plen < payloadFixed || plen > MaxRecordBytes || off+headerSize+plen > len(data) {
		return Record{}, 0, false
	}
	p := data[off+headerSize : off+headerSize+plen]
	if crc32.Checksum(p, castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
		return Record{}, 0, false
	}
	nr := int(binary.LittleEndian.Uint32(p[16:]))
	nw := int(binary.LittleEndian.Uint32(p[20:]))
	if payloadFixed+8*nr+16*nw != plen {
		return Record{}, 0, false
	}
	rec.Seq = binary.LittleEndian.Uint64(p[0:])
	rec.ValidTS = binary.LittleEndian.Uint64(p[8:])
	cur := payloadFixed
	if nr > 0 {
		rec.Reads = make([]uint64, nr)
		for i := range rec.Reads {
			rec.Reads[i] = binary.LittleEndian.Uint64(p[cur:])
			cur += 8
		}
	}
	if nw > 0 {
		rec.WriteAddrs = make([]uint64, nw)
		rec.WriteVals = make([]uint64, nw)
		for i := range rec.WriteAddrs {
			rec.WriteAddrs[i] = binary.LittleEndian.Uint64(p[cur:])
			rec.WriteVals[i] = binary.LittleEndian.Uint64(p[cur+8:])
			cur += 16
		}
	}
	return rec, off + headerSize + plen, true
}

// Device is the byte store a Log writes through — the seam the disk-fault
// layer (internal/fault.Disk) interposes on. A Device is an append-only
// stream with explicit durability: bytes are not crash-safe until Sync
// returns nil.
type Device interface {
	// Append writes p at the end of the device. A short write is an error.
	// The implementation must not retain p after it returns: the Log
	// refills the same buffer with later records.
	Append(p []byte) error
	// Sync makes all previously appended bytes durable.
	Sync() error
	// Contents returns the device's current bytes (recovery's read path).
	Contents() ([]byte, error)
	// Truncate discards bytes at offset n and beyond (the torn-tail cut).
	Truncate(n int64) error
	// Size returns the current length in bytes.
	Size() (int64, error)
	// Close releases the device.
	Close() error
}

// MemDevice is an in-memory Device for tests, benchmarks, and crash-image
// replay (fault.Disk.CrashImage produces the bytes a crash would leave;
// NewMemDevice turns them back into a recoverable device).
//
// Its cost model is a disk's: Append costs O(len(p)) whatever the size of
// the log. The bytes live in fixed-size chunks; an append fills the tail
// chunk and opens new ones, and a byte once written is never moved (a
// single growing slice would copy the whole log at every doubling, a cost
// that grows with the log, not with the record). Contents copies the log
// once, Size is O(1) and Truncate drops the chunks past the cut.
type MemDevice struct {
	mu     sync.Mutex
	chunks [][]byte // each of cap memChunk; all but the last are full
	size   int64
}

// memChunk is the size of one MemDevice chunk.
const memChunk = 1 << 20

// NewMemDevice returns a MemDevice seeded with initial (which may be nil).
func NewMemDevice(initial []byte) *MemDevice {
	d := &MemDevice{}
	d.append(initial)
	return d
}

// Append implements Device.
func (d *MemDevice) Append(p []byte) error {
	d.mu.Lock()
	d.append(p)
	d.mu.Unlock()
	return nil
}

// append copies p into the tail chunk, opening chunks as they fill.
func (d *MemDevice) append(p []byte) {
	d.size += int64(len(p))
	for len(p) > 0 {
		last := len(d.chunks) - 1
		if last < 0 || len(d.chunks[last]) == memChunk {
			d.chunks = append(d.chunks, make([]byte, 0, memChunk))
			last++
		}
		c := d.chunks[last]
		n := min(len(p), memChunk-len(c))
		d.chunks[last] = append(c, p[:n]...)
		p = p[n:]
	}
}

// Sync implements Device (memory is "durable" by definition).
func (d *MemDevice) Sync() error { return nil }

// Contents implements Device.
func (d *MemDevice) Contents() ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []byte // nil when empty, as the copy of an empty slice is
	if d.size > 0 {
		out = make([]byte, 0, d.size)
	}
	for _, c := range d.chunks {
		out = append(out, c...)
	}
	return out, nil
}

// Truncate implements Device. A cut inside a chunk keeps the chunk and its
// capacity; the chunks wholly past the cut are dropped.
func (d *MemDevice) Truncate(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 || n > d.size {
		return fmt.Errorf("wal: truncate %d out of range [0,%d]", n, d.size)
	}
	keep := int((n + memChunk - 1) / memChunk) // chunks holding bytes below n
	clear(d.chunks[keep:])
	d.chunks = d.chunks[:keep]
	if keep > 0 {
		d.chunks[keep-1] = d.chunks[keep-1][:n-int64(keep-1)*memChunk]
	}
	d.size = n
	return nil
}

// Size implements Device.
func (d *MemDevice) Size() (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size, nil
}

// Close implements Device.
func (d *MemDevice) Close() error { return nil }

// FileDevice is an os.File-backed Device. The file is opened O_APPEND, so
// every Append is one write(2) at the current end of file, a truncated one
// included, with no seek before it.
type FileDevice struct {
	f *os.File
}

// OpenFile opens (creating if absent) a file-backed device at path.
func OpenFile(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileDevice{f: f}, nil
}

// Append implements Device.
func (d *FileDevice) Append(p []byte) error {
	n, err := d.f.Write(p)
	if err == nil && n != len(p) {
		return fmt.Errorf("wal: short write (%d of %d bytes)", n, len(p))
	}
	return err
}

// Sync implements Device.
func (d *FileDevice) Sync() error { return d.f.Sync() }

// Contents implements Device.
func (d *FileDevice) Contents() ([]byte, error) {
	sz, err := d.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, sz)
	if _, err := d.f.ReadAt(buf, 0); err != nil && sz > 0 {
		return nil, err
	}
	return buf, nil
}

// Truncate implements Device.
func (d *FileDevice) Truncate(n int64) error { return d.f.Truncate(n) }

// Size implements Device.
func (d *FileDevice) Size() (int64, error) {
	st, err := d.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close implements Device.
func (d *FileDevice) Close() error { return d.f.Close() }

// Options parameterizes a Log.
type Options struct {
	// FlushInterval is the group-commit period: the flusher writes and
	// fsyncs the buffered records at most this often (sooner when a
	// WaitDurable caller kicks it). Default 1ms.
	FlushInterval time.Duration
}

func (o *Options) fill() {
	if o.FlushInterval == 0 {
		o.FlushInterval = time.Millisecond
	}
}

// Stats is a snapshot of the log counters.
type Stats struct {
	Appends    uint64 // records appended
	Flushes    uint64 // device write+sync rounds that made progress
	SyncErrors uint64 // fsyncs that failed (durability did not advance)
	Bytes      uint64 // payload+header bytes appended
	DurableSeq uint64 // sequences < DurableSeq are fsync-durable
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Log is the group-commit writer. Append is called in publication order
// (the runtime's ordered commit phase serializes callers); the flusher
// goroutine drains the buffer to the device and fsyncs, advancing the
// durable horizon a batch at a time.
type Log struct {
	dev  Device
	opts Options

	mu       sync.Mutex
	cond     *sync.Cond
	buf      []byte // encoded records not yet written to the device
	spare    []byte // the last batch the device returned from; next buf
	next     uint64 // next expected append sequence
	buffered uint64 // sequences < buffered are encoded (in buf or appended)
	appended uint64 // sequences < appended are written to the device
	failed   error  // sticky device-append failure
	closed   bool

	durable atomic.Uint64 // sequences < durable are fsync-durable

	appends, flushes, syncErrs, bytes atomic.Uint64

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// Open starts a Log appending to dev; next is the first sequence the log
// will accept (0 for a fresh log, Recover's NextSeq after a replay).
func Open(dev Device, next uint64, opts Options) *Log {
	opts.fill()
	l := &Log{
		dev:      dev,
		opts:     opts,
		next:     next,
		buffered: next,
		appended: next,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	l.durable.Store(next)
	l.wg.Add(1)
	go l.flusher()
	return l
}

// NextSeq returns the next sequence Append will accept.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// DurableSeq returns the durable horizon: sequences < DurableSeq have
// been fsynced.
func (l *Log) DurableSeq() uint64 { return l.durable.Load() }

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:    l.appends.Load(),
		Flushes:    l.flushes.Load(),
		SyncErrors: l.syncErrs.Load(),
		Bytes:      l.bytes.Load(),
		DurableSeq: l.durable.Load(),
	}
}

// Append encodes rec into the group-commit buffer. It must be called with
// contiguous sequences (rec.Seq == NextSeq) — the publication order the
// commit pipeline produces; a gap is a protocol bug and panics. Append
// returns without waiting for durability; pair it with WaitDurable for
// synchronous commits. rec's slices are not retained.
func (l *Log) Append(rec *Record) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.failed != nil {
		err := l.failed
		l.mu.Unlock()
		return err
	}
	if rec.Seq != l.next {
		l.mu.Unlock()
		panic(fmt.Sprintf("wal: append seq %d, want %d (publication order violated)", rec.Seq, l.next))
	}
	before := len(l.buf)
	l.buf = appendEncoded(l.buf, rec)
	l.next = rec.Seq + 1
	l.buffered = l.next
	l.appends.Add(1)
	l.bytes.Add(uint64(len(l.buf) - before))
	l.mu.Unlock()
	return nil
}

// Sync flushes the buffer and fsyncs, returning once every record
// appended before the call is durable (or the device failed).
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.buffered
	l.mu.Unlock()
	return l.WaitDurable(target)
}

// WaitDurable blocks until sequences < seq are fsync-durable. It kicks
// the flusher so a waiter is never parked for a full FlushInterval, and
// returns the sticky device error if the log can no longer make progress.
func (l *Log) WaitDurable(seq uint64) error {
	if l.durable.Load() >= seq {
		return nil
	}
	select {
	case l.kick <- struct{}{}:
	default:
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable.Load() < seq {
		if l.failed != nil {
			return l.failed
		}
		if l.closed {
			return ErrClosed
		}
		l.cond.Wait()
	}
	return nil
}

// Close flushes, fsyncs, and stops the flusher. The device stays open
// (the caller owns it).
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	l.wg.Wait()
	l.flushOnce() // final drain after the flusher exited
	l.mu.Lock()
	err := l.failed
	if err == nil && l.durable.Load() < l.buffered {
		err = fmt.Errorf("wal: close: %d record(s) buffered but not durable",
			l.buffered-l.durable.Load())
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

// flusher is the group-commit goroutine: every FlushInterval (or sooner,
// when a waiter kicks) it drains the buffer to the device and fsyncs.
func (l *Log) flusher() {
	defer l.wg.Done()
	tick := time.NewTicker(l.opts.FlushInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-l.kick:
		case <-tick.C:
		}
		l.flushOnce()
	}
}

// flushOnce writes the buffered bytes to the device and fsyncs. The
// append and the sync advance separate horizons: a failed fsync leaves
// the bytes on the device un-durable and is retried on the next round
// (durability is only claimed after a sync that returned nil).
//
// The log is double-buffered: Append fills buf while the device writes
// the batch taken from it, and once the device has returned the batch
// becomes the spare the next flush hands to Append, so a log at steady
// state allocates no buffer. Only one flushOnce runs at a time (the
// flusher, or Close after the flusher has exited).
func (l *Log) flushOnce() {
	l.mu.Lock()
	var batch []byte
	target := l.buffered
	if len(l.buf) > 0 {
		batch = l.buf
		l.buf, l.spare = l.spare[:0], nil
	}
	syncTo := l.appended
	l.mu.Unlock()

	if batch != nil {
		if err := l.dev.Append(batch); err != nil {
			// A device write failure is terminal: the byte stream's tail
			// state is unknown, so no later append may land after the gap.
			l.mu.Lock()
			l.failed = fmt.Errorf("wal: device append: %w", err)
			l.cond.Broadcast()
			l.mu.Unlock()
			return
		}
		syncTo = target
		l.mu.Lock()
		l.appended = target
		l.spare = batch
		l.mu.Unlock()
	}
	if syncTo > l.durable.Load() {
		if err := l.dev.Sync(); err != nil {
			// Transient by contract: durability simply has not advanced;
			// the next round retries the sync over the same bytes.
			l.syncErrs.Add(1)
			return
		}
		l.durable.Store(syncTo)
		l.flushes.Add(1)
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// ReplayResult describes a scanned log.
type ReplayResult struct {
	// Records is the intact prefix, in publication order.
	Records []Record
	// IntactBytes is the byte length of the intact prefix.
	IntactBytes int64
	// TornBytes counts trailing bytes past the intact prefix (0 for a
	// cleanly closed log).
	TornBytes int64
	// NextSeq is the sequence after the last intact record (0 for an
	// empty log).
	NextSeq uint64
}

// Replay scans data from the start and returns the intact record prefix.
// The scan stops at the first torn or corrupt record — that is the crash
// boundary, not an error. A sequence discontinuity inside the intact
// prefix is an error: crashes tear tails, they do not reorder history.
func Replay(data []byte) (*ReplayResult, error) {
	res := &ReplayResult{}
	if n := frames(data); n > 0 {
		res.Records = make([]Record, 0, n)
	}
	off := 0
	for {
		rec, next, ok := decodeOne(data, off)
		if !ok {
			break
		}
		if len(res.Records) > 0 && rec.Seq != res.NextSeq {
			return nil, fmt.Errorf("wal: sequence gap at byte %d: record %d follows %d",
				off, rec.Seq, res.NextSeq-1)
		}
		res.Records = append(res.Records, rec)
		res.NextSeq = rec.Seq + 1
		off = next
	}
	res.IntactBytes = int64(off)
	res.TornBytes = int64(len(data)) - int64(off)
	return res, nil
}

// frames counts the frames of data, reading only the length fields: it
// stops where decodeOne stops on a length (a short header, an implausible
// length, a truncated payload) but checks no checksum. So it never counts
// fewer records than Replay decodes, and exactly as many for a log whose
// tail was cut; a frame whose checksum fails is counted, with whatever
// frames follow it. Replay sizes its record slice with it once.
func frames(data []byte) int {
	n := 0
	for off := 0; off+headerSize <= len(data); n++ {
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		if plen < payloadFixed || plen > MaxRecordBytes || off+headerSize+plen > len(data) {
			break
		}
		off += headerSize + plen
	}
	return n
}

// Recover reads dev, replays the intact prefix, and truncates the torn
// tail so a subsequent Open appends cleanly after the last intact record.
func Recover(dev Device) (*ReplayResult, error) {
	data, err := dev.Contents()
	if err != nil {
		return nil, fmt.Errorf("wal: reading device: %w", err)
	}
	res, err := Replay(data)
	if err != nil {
		return nil, err
	}
	if res.TornBytes > 0 {
		if err := dev.Truncate(res.IntactBytes); err != nil {
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	return res, nil
}
