package wal

import (
	"fmt"
	"time"
)

// This file is the log's replication surface: the primary side exposes its
// stream position and incremental reads, the follower side a write path
// that preserves shipped LSNs. The wire protocol over these primitives
// lives in internal/remote (ServeReplication / ReplicationFollower).
//
// Epochs delimit compactions: every Checkpoint (and InstallSnapshot)
// advances the epoch, so a follower streaming records within one epoch
// knows the records it already holds are a superset of what the primary
// dropped, and an epoch change tells it to resynchronise from a full
// Snapshot instead of chasing LSNs that no longer exist.

// State returns the log's replication position: the current epoch and the
// LSN the next appended record will receive.
func (l *Log) State() (epoch, nextLSN uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch, l.nextLSN
}

// LastLSN returns the LSN of the most recently appended record, or 0 for a
// log that has never been appended to.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// RecordsSince returns, in LSN order, the durable records with LSN greater
// than after. Records compacted away by a checkpoint are not resurrected —
// callers track the epoch (State) to detect compaction. The first record
// is found in the in-memory index and only the returned records' bytes
// are read, so the cost follows the number of records returned, not the
// length of the log. Every record's CRC is verified; corruption of synced
// bytes is an error naming the record's LSN.
func (l *Log) RecordsSince(after uint64) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	return l.readRecordsLocked(l.searchLocked(after), len(l.index))
}

// WaitSince blocks until the log's stream state has moved past (epoch,
// after) — a record with LSN greater than after was appended, the epoch
// changed (checkpoint), or the log closed — or until timeout elapses. It
// reports whether the state moved; false means the timeout fired with the
// log still exactly at (epoch, after). Replication fetch long-polls on it.
func (l *Log) WaitSince(epoch, after uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		if l.closed || l.epoch != epoch || l.nextLSN > after+1 {
			l.mu.Unlock()
			return true
		}
		ch := l.waitCh
		l.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		timer := time.NewTimer(wait)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return false
		}
	}
}

// AppendRecord durably appends a record shipped from a primary, preserving
// its LSN. The record must be beyond the log's current position
// (ErrStaleRecord otherwise): followers apply the stream in order and drop
// duplicates. Like Append, the record is synced before returning and any
// torn tail from a failed append is repaired first.
func (l *Log) AppendRecord(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if r.LSN < l.nextLSN {
		return fmt.Errorf("%w: lsn %d, log already at %d", ErrStaleRecord, r.LSN, l.nextLSN-1)
	}
	if err := l.appendLocked(r); err != nil {
		return err
	}
	l.nextLSN = r.LSN + 1
	if r.Kind == KindTerm {
		l.noteTermRecordLocked(r)
	}
	l.notifyLocked()
	return nil
}

// InstallSnapshot atomically replaces the log's entire contents with a
// primary's Snapshot and adopts the primary's epoch, resynchronising a
// follower after the primary compacted records the follower had not yet
// fetched. The swap is crash-atomic (same mechanism as Checkpoint): a
// crash mid-install leaves either the old follower log or the complete
// snapshot.
func (l *Log) InstallSnapshot(epoch uint64, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.be.replace(data); err != nil {
		return fmt.Errorf("wal: install snapshot: %w", err)
	}
	recs, valid := parseRecords(data, 0)
	if valid < len(data) {
		// A snapshot is always a whole number of records; torn bytes mean
		// the shipped data was corrupt. The valid prefix is kept.
		if err := l.be.truncate(valid); err != nil {
			return fmt.Errorf("wal: install snapshot truncate: %w", err)
		}
		if err := l.be.sync(); err != nil {
			return fmt.Errorf("wal: install snapshot sync: %w", err)
		}
	}
	l.adoptScannedLocked(recs)
	if l.fenced && l.fencedTerm <= l.term {
		// The snapshot carries the term the fence was raised for: this
		// member now provably holds the new leader's history, so its
		// append path need not stay fenced.
		l.fenced = false
		l.fencedTerm = 0
	}
	l.size = valid
	l.dirty = false
	l.epoch = epoch
	l.notifyLocked()
	return nil
}
