// Package wal implements the logging service of the paper's fig. 3: a
// checksummed append-only record log with replay.
//
// The transaction service writes its prepare and commit/rollback decision
// records here (presumed abort needs only the commit decision to be
// durable), and the activity service journals activity structure events so
// that the activity tree can be rebuilt after a crash (§3.4 of the paper).
//
// The on-disk format is a sequence of records:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//	payload = u64 LSN | u16 kind | data bytes
//
// Opening a log stops at the first torn or corrupt record, which models a
// crash mid-write; everything before it is durable. Both a file-backed and an
// in-memory backend are provided, and both support deterministic crash
// injection for recovery tests (InjectCrashAfter).
//
// Crash-atomicity guarantees:
//
//   - Append is atomic: a record is either durable in full or invisible to
//     replay. A torn tail left by a crashed or failed append is repaired
//     (truncated and synced) before the next append, so later records are
//     never written behind garbage where replay cannot see them.
//   - Checkpoint is atomic: the compacted log is written to a temporary
//     file, synced, and renamed over the old log (the in-memory backend
//     swaps its buffer in one step). A crash at any point during a
//     checkpoint leaves either the complete old log or the complete new
//     one — never an empty or partially rewritten log.
//   - Open makes the repaired log durable before use: a truncated torn
//     tail is synced, and a newly created log file is made durable with a
//     parent-directory fsync, so a crash immediately after open cannot
//     resurrect the tail or lose the file.
//
// For replication, the log exposes its stream position (State, LastLSN),
// incremental reads (RecordsSince, WaitSince) and a follower write surface
// (AppendRecord, InstallSnapshot) — see the replication layer in
// internal/remote for the wire protocol built on them. The log keeps an
// in-memory index of every valid record's LSN and byte offset, so
// RecordsSince finds its first record by binary search and reads only the
// bytes it ships, in one positional read: its cost follows the number of
// records shipped, not the length of the log. Every read still verifies
// each record's CRC; a mismatch inside the indexed (synced) range is
// reported as corruption, never silently shipped as a shorter batch.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Kind identifies the type of a log record. Kinds are assigned by the
// client packages (OTS, activity service); the log does not interpret them.
type Kind uint16

// Record is one durable log entry.
type Record struct {
	LSN  uint64
	Kind Kind
	Data []byte
}

// Log errors.
var (
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrCrashed reports that crash injection stopped an append.
	ErrCrashed = errors.New("wal: simulated crash")
	// ErrStaleRecord reports a follower append whose LSN is not beyond the
	// log's current position (a duplicate or out-of-order shipment).
	ErrStaleRecord = errors.New("wal: stale record")
)

const headerSize = 8 // u32 length + u32 crc

// backend abstracts the durable medium.
type backend interface {
	// append writes b at the end of the medium.
	append(b []byte) error
	// sync forces previously written bytes to durable storage.
	sync() error
	// contents reads the whole medium, including any torn tail.
	contents() ([]byte, error)
	// readAt reads len(p) bytes starting at offset off, like
	// io.ReaderAt. It does not move the offset appends write at.
	readAt(p []byte, off int64) (int, error)
	// truncate discards everything beyond offset n.
	truncate(n int) error
	// replace atomically substitutes the entire contents with b: after a
	// crash at any point the medium holds either the old contents or b.
	replace(b []byte) error
	// close releases the medium.
	close() error
}

// Log is an append-only record log. Safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	be      backend
	nextLSN uint64
	size    int          // byte offset of the end of the last valid record
	dirty   bool         // a failed append may have left torn bytes past size
	index   []indexEntry // every valid record, in log order
	epoch   uint64
	waitCh  chan struct{} // closed and renewed whenever the stream advances
	closed  bool

	// Coordinator-group term state (see term.go). term/termStart/termLeader
	// mirror the latest durable KindTerm record; termMarks caches every
	// durable term record's position so TermStartAfter answers without
	// rescanning the backend; fenced/fencedTerm are the in-memory fence
	// raised when a higher term is learned of before its record arrives
	// through the stream.
	term       uint64
	termStart  uint64
	termLeader string
	termMarks  []termMark
	fenced     bool
	fencedTerm uint64

	// Crash injection (tests): when armed, the append path tears after
	// failAfter more successful appends. Backend-agnostic so the same
	// fault matrix runs against memory and real files.
	failAfter int
	failArmed bool
}

// indexEntry locates one valid record: its LSN and the byte offset of its
// header. LSNs increase along the log, so the index is sorted by both.
type indexEntry struct {
	lsn uint64
	off int
}

// NewMemory returns an empty in-memory log.
func NewMemory() *Log {
	l, err := newLog(&memBackend{})
	if err != nil {
		// An empty memory backend cannot fail to replay.
		panic(fmt.Sprintf("wal: NewMemory: %v", err))
	}
	return l
}

// OpenMemory returns an in-memory log initialised from a previous log's
// Snapshot, simulating a process restart over the same durable state.
func OpenMemory(data []byte) (*Log, error) {
	buf := make([]byte, len(data))
	copy(buf, data)
	return newLog(&memBackend{buf: buf})
}

// OpenFile opens (creating if needed) a file-backed log and replays it to
// establish the next LSN. A torn tail from a previous crash is truncated
// and the truncation synced; the parent directory is fsynced so a freshly
// created log file survives a crash immediately after open.
func OpenFile(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	// Appends write at the file offset, which reads never move (they are
	// positional): start it at the end of the existing log.
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l, err := newLog(&fileBackend{f: f, path: path})
	if err != nil {
		f.Close()
		return nil, err
	}
	// Make the file's existence durable: without the directory fsync a
	// crash right after creating the log can lose the file itself, and
	// with it every record appended before the next directory flush.
	if err := syncDir(filepath.Dir(path)); err != nil {
		l.Close()
		return nil, fmt.Errorf("wal: sync dir for %s: %w", path, err)
	}
	return l, nil
}

// syncDir fsyncs a directory so that entries created or renamed inside it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func newLog(be backend) (*Log, error) {
	l := &Log{be: be, nextLSN: 1, waitCh: make(chan struct{})}
	b, err := be.contents()
	if err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	recs, valid := parseRecords(b, 0)
	l.adoptScannedLocked(recs)
	l.size = valid
	// Drop a torn tail so subsequent appends produce a clean log, and make
	// the repair durable: an unsynced truncation can be undone by a crash,
	// resurrecting the torn bytes in front of records appended after it.
	if len(b) > valid {
		if err := l.be.truncate(valid); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := l.be.sync(); err != nil {
			return nil, fmt.Errorf("wal: sync torn-tail repair: %w", err)
		}
	}
	return l, nil
}

// Append durably adds a record and returns its LSN. The record is written
// and synced before Append returns. If a previous append failed part-way,
// its torn bytes are truncated (and the truncation synced) first, so a
// successful Append is always visible to replay.
func (l *Log) Append(kind Kind, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.fenced {
		return 0, fmt.Errorf("%w: term %d", ErrFenced, l.fencedTerm)
	}
	lsn := l.nextLSN
	if err := l.appendLocked(Record{LSN: lsn, Kind: kind, Data: data}); err != nil {
		return 0, err
	}
	l.nextLSN++
	l.notifyLocked()
	return lsn, nil
}

// appendLocked repairs any torn tail, then writes and syncs one record.
// On failure the log is marked dirty so the next append repairs the tail
// before writing. The caller must hold l.mu.
func (l *Log) appendLocked(r Record) error {
	if err := l.repairLocked(); err != nil {
		return err
	}
	rec := encodeRecord(r)
	if l.failArmed {
		if l.failAfter <= 0 {
			// Simulate a torn write: half the record reaches the medium.
			_ = l.be.append(rec[:len(rec)/2])
			l.dirty = true
			return ErrCrashed
		}
		l.failAfter--
	}
	if err := l.be.append(rec); err != nil {
		l.dirty = true
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.be.sync(); err != nil {
		// The bytes may or may not have reached the medium; treat them as
		// torn so the next append truncates back to the last known-durable
		// offset instead of writing behind an uncertain tail.
		l.dirty = true
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.index = append(l.index, indexEntry{lsn: r.LSN, off: l.size})
	l.size += len(rec)
	return nil
}

// repairLocked truncates torn bytes left by a failed append back to the
// end of the last valid record and syncs the truncation. The caller must
// hold l.mu.
func (l *Log) repairLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.be.truncate(l.size); err != nil {
		return fmt.Errorf("wal: repair truncate: %w", err)
	}
	if err := l.be.sync(); err != nil {
		return fmt.Errorf("wal: repair sync: %w", err)
	}
	l.dirty = false
	return nil
}

// notifyLocked wakes WaitSince waiters after the stream advanced. The
// caller must hold l.mu.
func (l *Log) notifyLocked() {
	close(l.waitCh)
	l.waitCh = make(chan struct{})
}

// Records returns a copy of all durable records in LSN order.
func (l *Log) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	return l.readRecordsLocked(0, len(l.index))
}

// Replay calls fn for every durable record in order, stopping at the first
// error from fn.
func (l *Log) Replay(fn func(Record) error) error {
	recs, err := l.Records()
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint rewrites the log keeping only records for which keep returns
// true. LSNs of kept records are preserved, and the log's epoch advances
// so replication followers know to resynchronise from a snapshot.
//
// The rewrite is crash-atomic: the kept records are written to a temporary
// file, synced, and renamed over the log (the in-memory backend swaps its
// buffer in one step), so a crash mid-checkpoint leaves either the
// complete old log or the complete compacted one — never a truncated or
// partially rewritten log.
func (l *Log) Checkpoint(keep func(Record) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	recs, err := l.readRecordsLocked(0, len(l.index))
	if err != nil {
		return err
	}
	// The latest term record is retained regardless of keep: the group's
	// fencing epoch must stay durable across every compaction, and client
	// packages sharing the log do not know about it.
	lastTerm := -1
	for i, r := range recs {
		if r.Kind == KindTerm {
			lastTerm = i
		}
	}
	var out []byte
	kept := recs[:0]
	for i, r := range recs {
		if i == lastTerm || keep(r) {
			out = append(out, encodeRecord(r)...)
			kept = append(kept, r)
		}
	}
	if l.failArmed && l.failAfter <= 0 {
		// Simulated crash during the rewrite: the swap never became
		// durable, so the old contents must remain intact.
		return ErrCrashed
	}
	if err := l.be.replace(out); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.size = len(out)
	l.dirty = false
	l.rebuildIndexLocked(kept)
	l.epoch++
	l.notifyLocked()
	return nil
}

// Snapshot returns a copy of the durable record bytes (torn tails from a
// failed append are excluded), for simulated restarts and for shipping the
// log's full state to a replication follower (InstallSnapshot).
func (l *Log) Snapshot() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	return l.readLocked(0, l.size)
}

// Close releases the backend. Further use returns ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.notifyLocked()
	return l.be.close()
}

// InjectCrashAfter arranges for the log to fail all appends (and
// checkpoints) after n more successful appends, simulating a crash: the
// failing append tears half a record onto the medium, and a failing
// checkpoint stops before its atomic swap. Supported by every backend; a
// negative n disarms injection. It reports whether injection is supported.
func (l *Log) InjectCrashAfter(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		l.failArmed = false
		return true
	}
	l.failAfter = n
	l.failArmed = true
	return true
}

// readLocked returns a fresh copy of the log bytes [from, to), read with
// one positional read. Callers stay within l.size, so torn bytes past the
// last valid record are never read. The caller must hold l.mu.
func (l *Log) readLocked(from, to int) ([]byte, error) {
	b := make([]byte, to-from)
	n, err := l.be.readAt(b, int64(from))
	if n < len(b) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wal: read %d bytes at offset %d: %w", len(b), from, err)
	}
	return b, nil
}

// readRecordsLocked returns the records at index positions [i, j), read
// with one positional read and parsed with every CRC verified. The
// records' Data share that read's buffer. Every indexed byte was synced
// when it was appended, so a record that fails to parse, or whose LSN
// disagrees with the index, is on-disk corruption and an error naming its
// LSN. The caller must hold l.mu.
func (l *Log) readRecordsLocked(i, j int) ([]Record, error) {
	if i == j {
		return nil, nil
	}
	end := l.size
	if j < len(l.index) {
		end = l.index[j].off
	}
	b, err := l.readLocked(l.index[i].off, end)
	if err != nil {
		return nil, err
	}
	recs, n := parseRecords(b, j-i)
	for k := range j - i {
		if k == len(recs) || recs[k].LSN != l.index[i+k].lsn {
			return nil, fmt.Errorf("wal: corrupt record at lsn %d (offset %d)", l.index[i+k].lsn, l.index[i+k].off)
		}
	}
	if len(recs) != j-i || n != len(b) {
		return nil, fmt.Errorf("wal: corrupt record after lsn %d", l.index[j-1].lsn)
	}
	return recs, nil
}

// searchLocked returns the index position of the first record with LSN
// greater than after. The caller must hold l.mu.
func (l *Log) searchLocked(after uint64) int {
	return sort.Search(len(l.index), func(k int) bool { return l.index[k].lsn > after })
}

// rebuildIndexLocked recomputes the record index and the term-record
// cache from recs, the complete record set laid out from offset 0 (open,
// truncation, snapshot install, checkpoint). The caller must hold l.mu.
func (l *Log) rebuildIndexLocked(recs []Record) {
	l.index = l.index[:0]
	l.termMarks = l.termMarks[:0]
	off := 0
	for _, r := range recs {
		l.index = append(l.index, indexEntry{lsn: r.LSN, off: off})
		off += headerSize + 10 + len(r.Data)
		if r.Kind != KindTerm {
			continue
		}
		if term, _, err := DecodeTermRecord(r.Data); err == nil {
			l.termMarks = append(l.termMarks, termMark{term: term, lsn: r.LSN})
		}
	}
}

// parseRecords decodes the records at the start of b, verifying each
// CRC, and stops at the first torn or corrupt one. It returns the records
// before that point, whose Data alias b, and the number of bytes they
// span. n sizes the result slice.
func parseRecords(b []byte, n int) ([]Record, int) {
	recs := make([]Record, 0, n)
	off := 0
	for off+headerSize <= len(b) {
		length := binary.BigEndian.Uint32(b[off : off+4])
		sum := binary.BigEndian.Uint32(b[off+4 : off+8])
		if length < 10 || off+headerSize+int(length) > len(b) {
			break // torn tail
		}
		payload := b[off+headerSize : off+headerSize+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt tail
		}
		recs = append(recs, Record{
			LSN:  binary.BigEndian.Uint64(payload[0:8]),
			Kind: Kind(binary.BigEndian.Uint16(payload[8:10])),
			Data: payload[10:len(payload):len(payload)],
		})
		off += headerSize + int(length)
	}
	return recs, off
}

func encodeRecord(r Record) []byte {
	payload := make([]byte, 10+len(r.Data))
	binary.BigEndian.PutUint64(payload[0:8], r.LSN)
	binary.BigEndian.PutUint16(payload[8:10], uint16(r.Kind))
	copy(payload[10:], r.Data)
	out := make([]byte, headerSize+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[headerSize:], payload)
	return out
}

// memBackend keeps the log in memory.
type memBackend struct {
	buf []byte
}

func (m *memBackend) append(b []byte) error {
	m.buf = append(m.buf, b...)
	return nil
}

func (m *memBackend) sync() error               { return nil }
func (m *memBackend) contents() ([]byte, error) { return m.buf, nil }

func (m *memBackend) readAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (m *memBackend) truncate(n int) error {
	if n < len(m.buf) {
		m.buf = m.buf[:n]
	}
	return nil
}

func (m *memBackend) replace(b []byte) error {
	m.buf = append(m.buf[:0:0], b...)
	return nil
}

func (m *memBackend) close() error { return nil }

// fileBackend appends to a real file with fsync on sync. replace goes
// through a temp-file + fsync + rename + directory-fsync sequence so the
// swap is atomic across a crash at any point.
type fileBackend struct {
	f    *os.File
	path string
}

func (fb *fileBackend) append(b []byte) error {
	_, err := fb.f.Write(b)
	return err
}

func (fb *fileBackend) sync() error { return fb.f.Sync() }

func (fb *fileBackend) readAt(p []byte, off int64) (int, error) { return fb.f.ReadAt(p, off) }

func (fb *fileBackend) contents() ([]byte, error) {
	fi, err := fb.f.Stat()
	if err != nil {
		return nil, err
	}
	b := make([]byte, fi.Size())
	if _, err := fb.readAt(b, 0); err != nil {
		return nil, err
	}
	return b, nil
}

func (fb *fileBackend) truncate(n int) error {
	if err := fb.f.Truncate(int64(n)); err != nil {
		return fmt.Errorf("truncate: %w", err)
	}
	if _, err := fb.f.Seek(int64(n), io.SeekStart); err != nil {
		return fmt.Errorf("seek: %w", err)
	}
	return nil
}

func (fb *fileBackend) replace(b []byte) error {
	tmpPath := fb.path + ".ckpt"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint temp: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}
	if _, err := tmp.Write(b); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint sync: %w", err)
	}
	// The swap: after the rename the open tmp handle refers to the file
	// now living at the log path, so it becomes the backend's handle with
	// no window where the log has no open file.
	if err := os.Rename(tmpPath, fb.path); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint rename: %w", err)
	}
	// Past the rename the swap is complete: the open tmp handle refers to
	// the file now living at the log path, so it becomes the backend's
	// handle with no window where the log has no open file. A failed
	// directory fsync is benign for correctness — if the rename is lost to
	// a crash, recovery replays the complete old log, a valid
	// pre-checkpoint state — so it does not fail the swap.
	_ = syncDir(filepath.Dir(fb.path))
	old := fb.f
	fb.f = tmp
	if _, err := fb.f.Seek(0, io.SeekEnd); err != nil {
		old.Close()
		return fmt.Errorf("checkpoint seek: %w", err)
	}
	return old.Close()
}

func (fb *fileBackend) close() error { return fb.f.Close() }
