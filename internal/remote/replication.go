package remote

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/wal"
)

// WAL replication over the ORB: the primary coordinator exposes its
// decision log as a well-known servant and a warm standby streams it into
// a follower wal.Log. The protocol is pull-based — the follower long-polls
// repl_fetch so a healthy primary ships each record within one round trip
// — with epochs delimiting checkpoints: a checkpoint compacts records
// (preserving LSNs), so a follower that sees the primary's epoch move
// resynchronises from a full repl_snapshot instead of chasing LSNs that no
// longer exist. Each fetch doubles as the follower's acknowledgement of
// everything at or below its watermark; the primary's ReplicationPrimary
// tracks that watermark so a decision barrier (semi-synchronous
// replication) can hold phase two until the standby holds the decision.
//
// All three verbs belong to the priority admission class
// (orb.DefaultPriorityOps): shedding replication under overload would let
// the standby fall behind exactly when the primary is most likely to die.
const (
	// ReplicationTypeID is the interface id of the WAL replication servant.
	ReplicationTypeID = "IDL:ActivityService/WALReplication:1.0"
	// ReplicationKey is the well-known object key the replication servant
	// serves under — like ots-recovery, a standby needs only the primary's
	// endpoint to find it.
	ReplicationKey = "wal-replication"
)

// ErrPrimaryLost is returned by ReplicationFollower.Run when the primary
// has been unreachable for the takeover policy's failure budget: the
// standby should stop following and take over.
var ErrPrimaryLost = errors.New("remote: replication primary lost")

// fetch reply status octets.
const (
	replOK            = 0
	replEpochMismatch = 1
	// replFenced tells the fetching follower its stream position belongs
	// to a deposed term: either the follower holds an unreplicated suffix
	// it must truncate before streaming (rejoin), or the *server* just
	// learned from the follower's term that it has itself been deposed.
	replFenced = 2
)

// ReplicationPrimary is the primary-side handle returned by
// ServeReplication: it tracks per-follower acknowledgement watermarks and
// lets the commit path wait on them.
type ReplicationPrimary struct {
	log *wal.Log

	mu    sync.Mutex
	acked uint64            // the most advanced follower watermark
	acks  map[string]uint64 // per-follower watermarks, keyed by follower ID
	ackCh chan struct{}     // closed and renewed whenever any watermark advances
}

// noteAck records that follower id has durably applied every record with
// LSN at or below lsn.
func (p *ReplicationPrimary) noteAck(id string, lsn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	moved := false
	if lsn > p.acks[id] {
		p.acks[id] = lsn
		moved = true
	}
	if lsn > p.acked {
		p.acked = lsn
		moved = true
	}
	if moved {
		close(p.ackCh)
		p.ackCh = make(chan struct{})
	}
}

// Acked returns the highest LSN any follower has acknowledged as durable.
func (p *ReplicationPrimary) Acked() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acked
}

// FollowerAcks returns a copy of the per-follower ack watermarks (the
// admin scrape reports them as lag against the log's last LSN). Followers
// that never sent an ID are aggregated under "".
func (p *ReplicationPrimary) FollowerAcks() map[string]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]uint64, len(p.acks))
	for id, lsn := range p.acks {
		out[id] = lsn
	}
	return out
}

// ackedByNLocked reports whether at least n followers have acknowledged
// lsn. The caller must hold p.mu.
func (p *ReplicationPrimary) ackedByNLocked(lsn uint64, n int) bool {
	if n <= 1 {
		return p.acked >= lsn
	}
	count := 0
	for _, a := range p.acks {
		if a >= lsn {
			count++
		}
	}
	return count >= n
}

// WaitForAck blocks until a follower has acknowledged lsn (reporting true)
// or timeout elapses (false).
func (p *ReplicationPrimary) WaitForAck(lsn uint64, timeout time.Duration) bool {
	return p.WaitForAckN(lsn, 1, timeout)
}

// WaitForAckN blocks until at least n distinct followers have acknowledged
// lsn (reporting true) or timeout elapses (false). A coordinator group
// running semi-synchronous replication across N standbys waits for the
// quorum it wants here; n <= 1 waits on the most advanced watermark.
func (p *ReplicationPrimary) WaitForAckN(lsn uint64, n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		if p.ackedByNLocked(lsn, n) {
			p.mu.Unlock()
			return true
		}
		ch := p.ackCh
		p.mu.Unlock()
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

// DecisionBarrier adapts WaitForAck to ots.WithDecisionBarrier: the
// returned hook holds each freshly-logged commit decision until the
// standby acknowledges its LSN or timeout elapses. A timeout degrades to
// asynchronous shipping — the decision is already durable locally and must
// not be un-decided because a standby is slow.
func (p *ReplicationPrimary) DecisionBarrier(timeout time.Duration) func(lsn uint64) {
	return func(lsn uint64) { p.WaitForAck(lsn, timeout) }
}

// DecisionGateN adapts the quorum ack barrier to ots.WithDecisionGate,
// adding the fence check the barrier cannot express. The gate releases a
// freshly-logged commit decision only once n distinct followers have
// durably acknowledged its LSN — so every member a later election could
// pick already holds the decision — and a fence raised at any point
// vetoes the commit with FENCED: a deposed leader's decision is an
// orphan the rejoin truncation cuts, so it must never reach phase two.
//
// Unlike DecisionBarrier, a missing ack does NOT degrade to asynchronous
// shipping: the gate blocks, re-checking the fence every interval, until
// the acks arrive or this member is deposed. Degrading would let a
// leader deliver phase two, die, and leave the election to pick a
// standby that never saw the decision; vetoing on a slow standby would
// be unsafe the other way, because the decision record is already
// durable locally and would replay as commit after a crash while the
// client heard rollback. Blocking is the only outcome consistent on
// both sides of a crash. n < 1 skips the ack wait (a single-member
// group has nobody to wait for) but keeps both fence checks.
func (p *ReplicationPrimary) DecisionGateN(n int, interval time.Duration) func(lsn uint64) error {
	if interval <= 0 {
		interval = time.Second
	}
	return func(lsn uint64) error {
		for {
			if err := p.fenceCheck(); err != nil {
				return err
			}
			if n < 1 || p.WaitForAckN(lsn, n, interval) {
				return p.fenceCheck()
			}
		}
	}
}

// DecisionGate is DecisionGateN over a single follower: the two-member
// (primary plus one standby) deployment's gate. Coordinator groups use
// GroupMember.DecisionGate, which sizes n to the electorate's quorum.
func (p *ReplicationPrimary) DecisionGate(interval time.Duration) func(lsn uint64) error {
	return p.DecisionGateN(1, interval)
}

// fenceCheck surfaces a raised fence as the FENCED system exception.
func (p *ReplicationPrimary) fenceCheck() error {
	if !p.log.Fenced() {
		return nil
	}
	return orb.Systemf(orb.CodeFenced, "term=%d deposed mid-commit", p.log.KnownTerm())
}

// groupHooks is the coordinator group's view of replication-servant
// events. Every hook may be nil (the legacy single-standby deployment has
// no group).
type groupHooks struct {
	// info reports this member's identity for repl_state.
	info func() (memberID string, leader bool, lastElectionMillis int64)
	// claim decides a repl_claim: accept (nil) repoints this member to the
	// claimant; a FENCED error rejects it.
	claim func(term uint64, leaderID string, epoch, lastLSN uint64, endpoints []string) error
	// deposed reports that a fetching follower proved a higher term exists
	// (the log has already been fenced when it runs).
	deposed func(term uint64)
	// claiming reports the term this member is claiming right now (0 when
	// none): from its first repl_claim until its term record is durable.
	claiming func() uint64
}

// replicationServant exposes a primary's wal.Log over the ORB.
type replicationServant struct {
	log     *wal.Log
	primary *ReplicationPrimary
	hooks   groupHooks
}

// ServeReplication activates the WAL replication servant for log on o
// under ReplicationKey and returns the primary-side handle plus the
// servant's reference. ReplicationAt rebuilds the same reference from
// endpoints alone.
func ServeReplication(o *orb.ORB, log *wal.Log) (*ReplicationPrimary, orb.IOR) {
	p, ref, _ := serveReplication(o, log, groupHooks{})
	return p, ref
}

// serveReplication registers the replication servant with group hooks
// attached; the coordinator group uses it so claims and fence evidence
// reach the member's election state.
func serveReplication(o *orb.ORB, log *wal.Log, hooks groupHooks) (*ReplicationPrimary, orb.IOR, *replicationServant) {
	p := &ReplicationPrimary{log: log, acks: make(map[string]uint64), ackCh: make(chan struct{})}
	s := &replicationServant{log: log, primary: p, hooks: hooks}
	ref := o.RegisterServantWithKey(ReplicationKey, ReplicationTypeID, s)
	return p, ref, s
}

// ReplicationAt builds the IOR of the well-known replication servant
// reachable at the given endpoints (profiles, in preference order). Bare
// host:port addresses are accepted alongside the "tcp:host:port" form
// ORB.Endpoints reports.
func ReplicationAt(endpoints ...string) orb.IOR {
	return orb.NewIOR(ReplicationTypeID, ReplicationKey, normalizeEndpoints(endpoints)...)
}

// maxFetchWait caps how long one repl_fetch may park a dispatch slot.
const maxFetchWait = 30 * time.Second

// Dispatch implements orb.Servant.
func (s *replicationServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	switch op {
	case "repl_state":
		epoch, next := s.log.State()
		ts := s.log.TermState()
		memberID, leader, lastElection := "", false, int64(0)
		if s.hooks.info != nil {
			memberID, leader, lastElection = s.hooks.info()
		}
		e := cdr.NewEncoder(64)
		e.WriteUint64(epoch)
		e.WriteUint64(next)
		e.WriteUint64(s.primary.Acked())
		e.WriteUint64(ts.Term)
		e.WriteUint64(ts.Start)
		e.WriteString(ts.Leader)
		e.WriteString(memberID)
		e.WriteBool(leader)
		e.WriteInt64(lastElection)
		return e.Bytes(), nil

	case "repl_fetch":
		epoch := in.ReadUint64()
		after := in.ReadUint64()
		waitMillis := in.ReadUint32()
		max := in.ReadUint32()
		followerID, followerTerm := "", uint64(0)
		if in.Err() == nil && in.Remaining() > 0 {
			followerID = in.ReadString()
			followerTerm = in.ReadUint64()
		}
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "repl_fetch: %v", err)
		}
		if out, fenced := s.fenceFetch(after, followerTerm); fenced {
			return out, nil
		}
		curEpoch, _ := s.log.State()
		e := cdr.NewEncoder(256)
		if epoch != curEpoch {
			// The follower's stream position predates a checkpoint (or it
			// is ahead after a failed takeover); it must resynchronise from
			// a snapshot. Its watermark is from another epoch — ignore it.
			e.WriteOctet(replEpochMismatch)
			e.WriteUint64(curEpoch)
			e.WriteUint32(0)
			return e.Bytes(), nil
		}
		// A fetch after X acknowledges X: the follower only advances its
		// watermark once records are durable in its own log.
		s.primary.noteAck(followerID, after)
		if wait := time.Duration(waitMillis) * time.Millisecond; wait > 0 {
			if wait > maxFetchWait {
				wait = maxFetchWait
			}
			s.log.WaitSince(epoch, after, wait)
			// The epoch may have moved while parked; re-read and report
			// honestly so the follower resyncs rather than mixing streams.
			if curEpoch, _ = s.log.State(); curEpoch != epoch {
				e.WriteOctet(replEpochMismatch)
				e.WriteUint64(curEpoch)
				e.WriteUint32(0)
				return e.Bytes(), nil
			}
		}
		recs, err := s.log.RecordsSince(after)
		if err != nil {
			return nil, fmt.Errorf("repl_fetch: %w", err)
		}
		if max > 0 && len(recs) > int(max) {
			recs = recs[:max]
		}
		e.WriteOctet(replOK)
		e.WriteUint64(curEpoch)
		e.WriteUint32(uint32(len(recs)))
		for _, r := range recs {
			e.WriteUint64(r.LSN)
			e.WriteUint32(uint32(r.Kind))
			e.WriteBytes(r.Data)
		}
		return e.Bytes(), nil

	case "repl_snapshot":
		epoch, next := s.log.State()
		snap, err := s.log.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("repl_snapshot: %w", err)
		}
		e := cdr.NewEncoder(64 + len(snap))
		e.WriteUint64(epoch)
		e.WriteUint64(next)
		e.WriteBytes(snap)
		return e.Bytes(), nil

	case "repl_claim":
		term := in.ReadUint64()
		leaderID := in.ReadString()
		claimEpoch := in.ReadUint64()
		claimLast := in.ReadUint64()
		endpoints := in.ReadStringList()
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "repl_claim: %v", err)
		}
		if err := s.handleClaim(term, leaderID, claimEpoch, claimLast, endpoints); err != nil {
			return nil, err
		}
		epoch, next := s.log.State()
		e := cdr.NewEncoder(32)
		e.WriteUint64(epoch)
		e.WriteUint64(next - 1)
		return e.Bytes(), nil

	default:
		return nil, orb.Systemf(orb.CodeBadOperation, "WALReplication has no operation %q", op)
	}
}

// fenceFetch applies the term checks guarding repl_fetch, implementing
// both directions of the fence:
//
//   - The follower proves a higher term than this server knows: the server
//     has been deposed — fence the local log so in-flight appends (a
//     decision racing phase two) fail FENCED, tell the group, and answer
//     replFenced so the follower looks for the real leader.
//   - The follower's term is behind this server's and its stream position
//     reaches into a newer term's history: the follower is a deposed
//     leader holding an unreplicated suffix. Streaming to it would silently
//     diverge (its orphan records occupy LSNs this log assigned to other
//     records), so the reply carries the exact truncation bound — the
//     start of the first term beyond the follower's — for the follower's
//     crash-atomic rejoin cut.
//
// A follower term equal to the term this member is claiming is no proof
// of deposition: a voter that accepted the claim repoints here and may
// fetch before the claim's term record is durable. Fencing on it would
// fence the candidate the voter just elected. The claim is read before
// KnownTerm, and it ends only after the term record is durable, so such a
// fetch sees either the claim or the durable term.
func (s *replicationServant) fenceFetch(after, followerTerm uint64) ([]byte, bool) {
	var claiming uint64
	if s.hooks.claiming != nil {
		claiming = s.hooks.claiming()
	}
	known := s.log.KnownTerm()
	if followerTerm > known && followerTerm != claiming {
		s.log.Fence(followerTerm)
		if s.hooks.deposed != nil {
			s.hooks.deposed(followerTerm)
		}
		return encodeFencedReply(followerTerm, 0, "", nil), true
	}
	if term := s.log.Term(); followerTerm < term {
		if cut, ok := s.log.TermStartAfter(followerTerm); ok && after >= cut {
			ts := s.log.TermState()
			return encodeFencedReply(ts.Term, cut-1, ts.Leader, nil), true
		}
	}
	return nil, false
}

// handleClaim decides a repl_claim. The group's claim hook owns the
// decision when present; without a group the legacy rules apply: a claim
// for a term at or below the known one is fenced off, as is any claimant
// whose log does not subsume this member's — a stale epoch (the claimant
// missed a checkpoint this log has folded in), or a shorter log within
// the same epoch. LSNs survive compaction, but an epoch behind the
// voter's means the claimant's history stopped on an older line, so the
// comparison is epoch first, LSN within the epoch.
func (s *replicationServant) handleClaim(term uint64, leaderID string, claimEpoch, claimLast uint64, endpoints []string) error {
	if s.hooks.claim != nil {
		return s.hooks.claim(term, leaderID, claimEpoch, claimLast, endpoints)
	}
	if known := s.log.KnownTerm(); term <= known {
		ts := s.log.TermState()
		return orb.Systemf(orb.CodeFenced, "term=%d leader=%s claim for stale term %d", known, ts.Leader, term)
	}
	epoch, _ := s.log.State()
	if last := s.log.LastLSN(); claimEpoch < epoch || (claimEpoch == epoch && claimLast < last) {
		return orb.Systemf(orb.CodeFenced, "term=%d durable epoch %d lsn %d not subsumed by claimant epoch %d lsn %d",
			s.log.KnownTerm(), epoch, last, claimEpoch, claimLast)
	}
	s.log.Fence(term)
	return nil
}

// encodeFencedReply builds a replFenced fetch reply: the server's term,
// the truncation bound for a rejoining deposed leader (0 when the server
// itself is the stale party), and the leader hint.
func encodeFencedReply(term, truncateTo uint64, leaderID string, endpoints []string) []byte {
	e := cdr.NewEncoder(64)
	e.WriteOctet(replFenced)
	e.WriteUint64(term)
	e.WriteUint64(truncateTo)
	e.WriteString(leaderID)
	e.WriteStringList(endpoints)
	return e.Bytes()
}

// TakeoverPolicy says when a follower should declare the primary lost:
// after Failures consecutive failed fetch rounds, Retry apart.
type TakeoverPolicy struct {
	// Failures is how many consecutive fetch failures Run tolerates before
	// returning ErrPrimaryLost.
	Failures int
	// Retry is the pause between a failed round and the next attempt.
	Retry time.Duration
}

// ReplicationFollower streams a primary's WAL into a local follower log.
type ReplicationFollower struct {
	orb      *orb.ORB
	ref      orb.IOR
	log      *wal.Log
	id       string
	poll     time.Duration
	batch    uint32
	policy   TakeoverPolicy
	onRecord func(wal.Record)
	onFenced func(term uint64, leaderID string, endpoints []string)
}

// FollowerOption configures a ReplicationFollower.
type FollowerOption func(*ReplicationFollower)

// WithPollTimeout sets how long each fetch long-polls on the primary when
// the follower is caught up (default 2s; clamped by the primary to 30s).
func WithPollTimeout(d time.Duration) FollowerOption {
	return func(f *ReplicationFollower) {
		if d > 0 {
			f.poll = d
		}
	}
}

// WithTakeoverPolicy sets when Run declares the primary lost.
func WithTakeoverPolicy(p TakeoverPolicy) FollowerOption {
	return func(f *ReplicationFollower) {
		if p.Failures > 0 {
			f.policy.Failures = p.Failures
		}
		if p.Retry > 0 {
			f.policy.Retry = p.Retry
		}
	}
}

// WithRecordObserver installs a hook invoked after each shipped record is
// durable in the follower's log (tests use it to track replication lag).
func WithRecordObserver(fn func(wal.Record)) FollowerOption {
	return func(f *ReplicationFollower) { f.onRecord = fn }
}

// WithFollowerID names this follower on the wire: the primary keys its
// per-follower ack watermark by it, and the admin scrape reports lag under
// it. Coordinator-group members use their member ID.
func WithFollowerID(id string) FollowerOption {
	return func(f *ReplicationFollower) { f.id = id }
}

// WithFencedObserver installs a hook invoked when a fetch is answered
// replFenced: the server's term, and its leader hint when it knows one.
// Coordinator-group members repoint their stream from it.
func WithFencedObserver(fn func(term uint64, leaderID string, endpoints []string)) FollowerOption {
	return func(f *ReplicationFollower) { f.onFenced = fn }
}

// NewReplicationFollower returns a follower that streams the replication
// servant at ref through o into log.
func NewReplicationFollower(o *orb.ORB, ref orb.IOR, log *wal.Log, opts ...FollowerOption) *ReplicationFollower {
	f := &ReplicationFollower{
		orb:    o,
		ref:    ref,
		log:    log,
		poll:   2 * time.Second,
		batch:  256,
		policy: TakeoverPolicy{Failures: 3, Retry: 100 * time.Millisecond},
	}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// Sync runs one replication round: fetch the records beyond the follower's
// position and apply them, or resynchronise from a snapshot after an epoch
// mismatch. It returns the number of records (or snapshots, counted as
// one) applied. A healthy caught-up round long-polls on the primary until
// something happens or the poll timeout elapses, then returns (0, nil).
func (f *ReplicationFollower) Sync(ctx context.Context) (int, error) {
	epoch, next := f.log.State()
	e := cdr.NewEncoder(64)
	e.WriteUint64(epoch)
	e.WriteUint64(next - 1)
	e.WriteUint32(uint32(f.poll / time.Millisecond))
	e.WriteUint32(f.batch)
	e.WriteString(f.id)
	e.WriteUint64(f.log.KnownTerm())
	body, err := f.orb.Invoke(ctx, f.ref, "repl_fetch", e.Bytes())
	if err != nil {
		return 0, fmt.Errorf("repl_fetch: %w", err)
	}
	d := cdr.NewDecoder(body)
	status := d.ReadOctet()
	if err := d.Err(); err != nil {
		return 0, orb.Systemf(orb.CodeMarshal, "repl_fetch reply: %v", err)
	}
	if status == replFenced {
		return f.handleFenced(d)
	}
	d.ReadUint64() // primary epoch; re-read under repl_snapshot when resyncing
	count := d.ReadUint32()
	if err := d.Err(); err != nil {
		return 0, orb.Systemf(orb.CodeMarshal, "repl_fetch reply: %v", err)
	}
	if status == replEpochMismatch {
		if err := f.resync(ctx); err != nil {
			return 0, err
		}
		return 1, nil
	}
	applied := 0
	for i := uint32(0); i < count; i++ {
		rec := wal.Record{
			LSN:  d.ReadUint64(),
			Kind: wal.Kind(d.ReadUint32()),
			Data: d.ReadBytesClone(),
		}
		if err := d.Err(); err != nil {
			return applied, orb.Systemf(orb.CodeMarshal, "repl_fetch record: %v", err)
		}
		err := f.log.AppendRecord(rec)
		if errors.Is(err, wal.ErrStaleRecord) {
			continue // duplicate shipment; already durable here
		}
		if err != nil {
			return applied, fmt.Errorf("apply shipped record %d: %w", rec.LSN, err)
		}
		applied++
		if f.onRecord != nil {
			f.onRecord(rec)
		}
	}
	return applied, nil
}

// handleFenced applies a replFenced fetch reply — the automatic rejoin
// path. A reply naming a term beyond this follower's and a truncation
// bound below its position is the deposed-leader case: the follower cuts
// its unreplicated suffix (crash-atomic, the torn-tail repair path),
// fences its local appends under the new term, and resumes streaming —
// the next fetch starts below the cut and the new leader's term record
// arrives in sequence. Any other fenced reply means the *server* is the
// stale party (this follower out-ran its term); it counts as a failed
// round so the takeover budget eventually moves the follower elsewhere.
func (f *ReplicationFollower) handleFenced(d *cdr.Decoder) (int, error) {
	term := d.ReadUint64()
	truncateTo := d.ReadUint64()
	leaderID := d.ReadString()
	endpoints := d.ReadStringList()
	if err := d.Err(); err != nil {
		return 0, orb.Systemf(orb.CodeMarshal, "repl_fetch fenced reply: %v", err)
	}
	if f.onFenced != nil {
		f.onFenced(term, leaderID, endpoints)
	}
	if term >= f.log.KnownTerm() && truncateTo > 0 && f.log.LastLSN() > truncateTo {
		f.log.Fence(term)
		if err := f.log.TruncateAfter(truncateTo); err != nil {
			return 0, fmt.Errorf("rejoin truncation to %d: %w", truncateTo, err)
		}
		return 1, nil
	}
	return 0, orb.Systemf(orb.CodeFenced, "term=%d leader=%s fetch fenced", term, leaderID)
}

// resync installs a full primary snapshot, adopting its epoch.
func (f *ReplicationFollower) resync(ctx context.Context) error {
	body, err := f.orb.Invoke(ctx, f.ref, "repl_snapshot", nil)
	if err != nil {
		return fmt.Errorf("repl_snapshot: %w", err)
	}
	d := cdr.NewDecoder(body)
	epoch := d.ReadUint64()
	d.ReadUint64() // next LSN; implied by the snapshot contents
	snap := d.ReadBytesClone()
	if err := d.Err(); err != nil {
		return orb.Systemf(orb.CodeMarshal, "repl_snapshot reply: %v", err)
	}
	if err := f.log.InstallSnapshot(epoch, snap); err != nil {
		return fmt.Errorf("install snapshot: %w", err)
	}
	return nil
}

// Run streams the primary until ctx is cancelled (returning nil) or the
// primary has been unreachable for the takeover policy's failure budget
// (returning ErrPrimaryLost, the standby's cue to take over). Transient
// failures inside the budget are retried after the policy's pause.
func (f *ReplicationFollower) Run(ctx context.Context) error {
	failures := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		_, err := f.Sync(ctx)
		if err == nil {
			failures = 0
			continue
		}
		if ctx.Err() != nil {
			return nil
		}
		failures++
		if failures >= f.policy.Failures {
			return fmt.Errorf("%w: %d consecutive fetch failures, last: %v",
				ErrPrimaryLost, failures, err)
		}
		timer := time.NewTimer(f.policy.Retry)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil
		case <-timer.C:
		}
	}
}
