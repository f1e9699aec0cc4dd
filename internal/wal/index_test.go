package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// indexHarness drives one log through random mutations and can reopen it
// over the same medium, torn tail included, as a restarted process would.
type indexHarness struct {
	t    *testing.T
	l    *Log
	path string // file backend; empty for memory
}

func (h *indexHarness) reopen() {
	h.t.Helper()
	if h.path == "" {
		raw, err := h.l.be.contents()
		if err != nil {
			h.t.Fatal(err)
		}
		if h.l, err = OpenMemory(raw); err != nil {
			h.t.Fatal(err)
		}
		return
	}
	if err := h.l.Close(); err != nil {
		h.t.Fatal(err)
	}
	l, err := OpenFile(h.path)
	if err != nil {
		h.t.Fatal(err)
	}
	h.l = l
}

// medium parses the backend's raw bytes up to the last valid record the
// way open does, independently of the record index.
func (h *indexHarness) medium() []Record {
	h.t.Helper()
	raw, err := h.l.be.contents()
	if err != nil {
		h.t.Fatal(err)
	}
	recs, _ := parseRecords(raw[:h.l.size], 0)
	return recs
}

// check asserts the differential property: RecordsSince(x) equals
// Records() filtered to LSN > x for every x from 0 past the last LSN, and
// Records() equals an index-free parse of the medium.
func (h *indexHarness) check(step string) {
	h.t.Helper()
	all, err := h.l.Records()
	if err != nil {
		h.t.Fatalf("%s: Records: %v", step, err)
	}
	if want := h.medium(); !sameRecords(all, want) {
		h.t.Fatalf("%s: Records() = %s, medium holds %s", step, describe(all), describe(want))
	}
	for x := uint64(0); x <= h.l.LastLSN()+1; x++ {
		got, err := h.l.RecordsSince(x)
		if err != nil {
			h.t.Fatalf("%s: RecordsSince(%d): %v", step, x, err)
		}
		var want []Record
		for _, r := range all {
			if r.LSN > x {
				want = append(want, r)
			}
		}
		if !sameRecords(got, want) {
			h.t.Fatalf("%s: RecordsSince(%d) = %s, want %s", step, x, describe(got), describe(want))
		}
	}
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LSN != b[i].LSN || a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

func describe(recs []Record) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, r := range recs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d:%q", r.LSN, r.Kind, r.Data)
	}
	b.WriteByte(']')
	return b.String()
}

// TestRecordsSinceIndexDifferential drives seeded random sequences of
// every operation that moves the record index — appends, follower
// appends, term claims, checkpoints, suffix truncation, snapshot installs,
// torn appends with their repair, and reopens — over both backends, and
// after every step checks each incremental read against the full record
// set and the full record set against the medium.
func TestRecordsSinceIndexDifferential(t *testing.T) {
	for _, backend := range []string{"memory", "file"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", backend, seed), func(t *testing.T) {
				h := &indexHarness{t: t}
				if backend == "memory" {
					h.l = NewMemory()
				} else {
					h.path = filepath.Join(t.TempDir(), "index.wal")
					l, err := OpenFile(h.path)
					if err != nil {
						t.Fatal(err)
					}
					h.l = l
				}
				defer func() { h.l.Close() }()
				runIndexOps(t, h, rand.New(rand.NewSource(seed)), 200)
			})
		}
	}
}

func runIndexOps(t *testing.T, h *indexHarness, rng *rand.Rand, steps int) {
	payload := func() []byte {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return b
	}
	for i := 0; i < steps; i++ {
		l := h.l
		var step string
		switch op := rng.Intn(20); {
		case op < 7:
			step = "Append"
			if _, err := l.Append(Kind(1+rng.Intn(4)), payload()); err != nil {
				t.Fatalf("step %d %s: %v", i, step, err)
			}
		case op < 10:
			// Follower appends may skip LSNs a primary compacted away.
			_, next := l.State()
			r := Record{LSN: next + uint64(rng.Intn(3)), Kind: Kind(1 + rng.Intn(4)), Data: payload()}
			step = fmt.Sprintf("AppendRecord(%d)", r.LSN)
			if err := l.AppendRecord(r); err != nil {
				t.Fatalf("step %d %s: %v", i, step, err)
			}
		case op == 10:
			term := l.KnownTerm() + 1
			step = fmt.Sprintf("AdoptTerm(%d)", term)
			if _, err := l.AdoptTerm(term, fmt.Sprintf("m%d", rng.Intn(3))); err != nil {
				t.Fatalf("step %d %s: %v", i, step, err)
			}
		case op == 11:
			mod := uint64(2 + rng.Intn(3))
			step = fmt.Sprintf("Checkpoint(lsn%%%d)", mod)
			if err := l.Checkpoint(func(r Record) bool { return r.LSN%mod != 0 }); err != nil {
				t.Fatalf("step %d %s: %v", i, step, err)
			}
		case op == 12:
			cut := uint64(rng.Int63n(int64(l.LastLSN()) + 1))
			step = fmt.Sprintf("TruncateAfter(%d)", cut)
			if err := l.TruncateAfter(cut); err != nil {
				t.Fatalf("step %d %s: %v", i, step, err)
			}
			if last := l.LastLSN(); last > cut {
				t.Fatalf("step %d %s: last LSN %d survived the cut", i, step, last)
			}
		case op == 13:
			// A primary's snapshot, sometimes torn mid-record: the valid
			// prefix is installed.
			src := NewMemory()
			for n := rng.Intn(6); n > 0; n-- {
				if _, err := src.Append(Kind(1+rng.Intn(4)), payload()); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if len(snap) > 0 && rng.Intn(3) == 0 {
				snap = snap[:rng.Intn(len(snap))]
			}
			epoch, _ := l.State()
			step = fmt.Sprintf("InstallSnapshot(%d bytes)", len(snap))
			if err := l.InstallSnapshot(epoch+1, snap); err != nil {
				t.Fatalf("step %d %s: %v", i, step, err)
			}
		case op < 17:
			step = "torn Append"
			l.InjectCrashAfter(0)
			if _, err := l.Append(1, payload()); !errors.Is(err, ErrCrashed) {
				t.Fatalf("step %d %s: err = %v, want ErrCrashed", i, step, err)
			}
			l.InjectCrashAfter(-1)
			h.check(fmt.Sprintf("step %d %s", i, step))
			if rng.Intn(2) == 0 {
				step = "torn Append, reopened"
				h.reopen()
			} else {
				step = "torn Append, repaired"
				if _, err := l.Append(2, payload()); err != nil {
					t.Fatalf("step %d %s: %v", i, step, err)
				}
			}
		default:
			step = "reopen"
			h.reopen()
		}
		h.check(fmt.Sprintf("step %d %s", i, step))
	}
}

// TestRecordsSinceCorruptionIsAnError flips one byte inside the indexed
// (synced) range on both backends: every read covering the damaged
// record must fail naming its LSN instead of shipping a shorter batch,
// while reads that start past it still succeed.
func TestRecordsSinceCorruptionIsAnError(t *testing.T) {
	for _, backend := range []string{"memory", "file"} {
		t.Run(backend, func(t *testing.T) {
			var (
				l    *Log
				path string
				err  error
			)
			if backend == "memory" {
				l = NewMemory()
			} else {
				path = filepath.Join(t.TempDir(), "corrupt.wal")
				if l, err = OpenFile(path); err != nil {
					t.Fatal(err)
				}
			}
			defer l.Close()
			fill(t, l, 5)

			at := int64(l.index[2].off + headerSize + 10) // first data byte of LSN 3
			if backend == "memory" {
				l.be.(*memBackend).buf[at] ^= 0x01
			} else {
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				b := make([]byte, 1)
				if _, err := f.ReadAt(b, at); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x01
				if _, err := f.WriteAt(b, at); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}

			for _, after := range []uint64{0, 2} {
				recs, err := l.RecordsSince(after)
				if err == nil || !strings.Contains(err.Error(), "lsn 3") {
					t.Fatalf("RecordsSince(%d) = %d records, err %v; want an error naming lsn 3", after, len(recs), err)
				}
			}
			if _, err := l.Records(); err == nil {
				t.Fatal("Records succeeded over a corrupt synced record")
			}
			recs, err := l.RecordsSince(3)
			if err != nil || len(recs) != 2 || recs[0].LSN != 4 || recs[1].LSN != 5 {
				t.Fatalf("RecordsSince(3) past the damage = %s, %v; want LSNs 4 and 5", describe(recs), err)
			}
		})
	}
}

// BenchmarkRecordsSinceTail measures a replication fetch of the last two
// records of a file-backed log. With the record index its cost must not
// grow with the log's length; CI gates both lengths at one allocs/op
// budget.
func BenchmarkRecordsSinceTail(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			src := NewMemory()
			data := []byte("decision-record-payload-0123456789")
			for i := 0; i < n; i++ {
				if _, err := src.Append(Kind(7), data); err != nil {
					b.Fatal(err)
				}
			}
			snap, err := src.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "tail.wal")
			if err := os.WriteFile(path, snap, 0o644); err != nil {
				b.Fatal(err)
			}
			l, err := OpenFile(path)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			after := l.LastLSN() - 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs, err := l.RecordsSince(after)
				if err != nil || len(recs) != 2 {
					b.Fatalf("RecordsSince = %d records, %v", len(recs), err)
				}
			}
		})
	}
}
