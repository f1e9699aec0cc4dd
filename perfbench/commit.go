package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/wal"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// commit_durable: the coordinator-group commit path as activityd's group
// mode wires it. Three members each hold a file WAL (fsync per append);
// "a" is promoted and hosts the transaction service behind the quorum
// decision gate, "b" and "c" stream its log. Every operation is one
// distributed two-phase commit over three remote participants.
var commitDurable = &workload{
	name: "commit_durable",
	// Every round starts from empty logs and reaches the same length:
	// per-commit cost grows with log length (replication fetches rescan
	// the WAL file), so both sides of a comparison must stop at the same
	// place. Longer rounds push the leader's log mutex into saturation
	// and make whole runs fall into a slow mode (see README.md).
	opsPerRound: 100,
	warmup:      10,
	spans: []spanDef{
		{"op", ""},
		{"ots.begin", "op"},
		{"ots.register", "op"},
		{"ots.commit", "op"},
		{"orb.participant", "ots.commit"},
		{"remote.gate", "ots.commit"},
		// Commit phases from the OTS event hook: they partition the
		// Commit call, so they stay out of the call tree.
		{"ots.prepare", ""},
		{"ots.decision", ""},
		{"ots.phase2", ""},
		{"ots.done", ""},
		{"ots.protocol", ""}, // Commit call to StageDone
	},
	spanMetrics: func(tr *tracer, ops int) map[string]float64 {
		gate := tr.perOpMs("remote.gate", ops)
		part := tr.perOpMs("orb.participant", ops)
		protocol := tr.perOpMs("ots.protocol", ops)
		self := protocol - part - gate
		// Closure: the timed calls (begin, registrations, participant
		// calls, gate wait) plus the coordinator's self time, set against
		// the operation latency the load loop measures on its own.
		timed := tr.perOpMs("ots.begin", ops) + tr.perOpMs("ots.register", ops) + part + gate + self
		m := map[string]float64{
			"ots.prepare_ms":         tr.perOpMs("ots.prepare", ops),
			"ots.decision_ms":        tr.perOpMs("ots.decision", ops),
			"ots.phase2_ms":          tr.perOpMs("ots.phase2", ops),
			"ots.done_ms":            tr.perOpMs("ots.done", ops),
			"ots.self_ms":            self,
			"wal.decision_append_ms": tr.perOpMs("ots.decision", ops) - gate,
			"remote.gate_wait_ms":    tr.callMeanMs("remote.gate"),
			"orb.participant_rtt_ms": tr.callMeanMs("orb.participant"),
		}
		if op := tr.perOpMs("op", ops); op > 0 {
			m["trace.closure_ratio"] = timed / op
		}
		return m
	},
	build: buildCommit,
}

// participantsPerTx is the number of remote participants in every commit.
const participantsPerTx = 3

// gateInterval is the quorum gate's fence re-check interval (activityd's
// group-mode default).
const gateInterval = 2 * time.Second

type groupNode struct {
	id      string
	node    *orb.ORB
	log     *wal.Log
	path    string
	g       *orb.GroupMember
	fetches atomic.Int64 // repl_fetch calls made (traced rounds)
}

// participant is a remote two-phase-commit participant that counts the
// protocol calls it receives.
type participant struct {
	prepares, commits, rollbacks atomic.Int64
}

func (p *participant) Prepare() (ots.Vote, error) { p.prepares.Add(1); return ots.VoteCommit, nil }
func (p *participant) Commit() error              { p.commits.Add(1); return nil }
func (p *participant) Rollback() error            { p.rollbacks.Add(1); return nil }
func (p *participant) CommitOnePhase() error      { p.commits.Add(1); return nil }
func (p *participant) Forget() error              { return nil }

type commitSys struct {
	rc     *roundCtx
	nodes  [3]*groupNode
	part   *orb.ORB
	svc    *ots.Service
	res    [][participantsPerTx]*participant
	refs   [][participantsPerTx]orb.IOR
	cancel context.CancelFunc
	runs   sync.WaitGroup

	// traced rounds
	kBegin, kRegister, kCommit, kPart, kGate       int
	kPrepare, kDecision, kPhase2, kDone, kProtocol int
	inflight                                       sync.Map // tx id -> *txStamps
	gateMu                                         sync.Mutex
	gateHist                                       hist
	markLSN                                        uint64
	markSize                                       int64
	markFetches                                    int64
}

// txStamps are the event-hook timestamps of one traced commit.
type txStamps struct {
	start, prepared, decided, delivered, done time.Time
}

func buildCommit(rc *roundCtx) (system, error) {
	s := &commitSys{rc: rc}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	for i, id := range []string{"a", "b", "c"} {
		n := &groupNode{id: id, node: rc.newORB()}
		s.nodes[i] = n
		orb.InstallPropagation(n.node)
		if _, err := n.node.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		dir := filepath.Join(rc.tmp, id)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		n.path = filepath.Join(dir, "group.wal")
		l, err := ots.OpenFileLog(n.path)
		if err != nil {
			return nil, fmt.Errorf("open %s log: %w", id, err)
		}
		n.log = l
	}
	if rc.traced() {
		s.kBegin, s.kRegister, s.kCommit = rc.tr.kind("ots.begin"), rc.tr.kind("ots.register"), rc.tr.kind("ots.commit")
		s.kPart, s.kGate = rc.tr.kind("orb.participant"), rc.tr.kind("remote.gate")
		s.kPrepare, s.kDecision, s.kPhase2 = rc.tr.kind("ots.prepare"), rc.tr.kind("ots.decision"), rc.tr.kind("ots.phase2")
		s.kDone, s.kProtocol = rc.tr.kind("ots.done"), rc.tr.kind("ots.protocol")
		for _, n := range s.nodes[1:] {
			n := n
			n.node.AddClientInterceptor(func(_ context.Context, _ orb.IOR, op string) ([]orb.ServiceContext, error) {
				if op == "repl_fetch" {
					n.fetches.Add(1)
				}
				return nil, nil
			})
		}
	}
	leader := s.nodes[0]
	for i, n := range s.nodes {
		var peers []string
		for j, p := range s.nodes {
			if j != i {
				peers = append(peers, p.node.Endpoints()...)
			}
		}
		cfg := orb.GroupConfig{MemberID: n.id, Peers: peers}
		if i == 0 {
			cfg.Takeover = s.takeover
		} else {
			cfg.LeaderHint = leader.node.Endpoints()
		}
		n.g = orb.NewGroupMember(n.node, n.log, cfg)
		n.g.InstallAdminScrape()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	promoteCtx, cancelPromote := context.WithTimeout(ctx, 10*time.Second)
	err := leader.g.Promote(promoteCtx)
	cancelPromote()
	if err != nil {
		return nil, fmt.Errorf("promote leader: %w", err)
	}
	for _, n := range s.nodes {
		s.runs.Add(1)
		go func(n *groupNode) {
			defer s.runs.Done()
			if err := n.g.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "perfbench: group member %s stopped: %v\n", n.id, err)
			}
		}(n)
	}

	s.part = rc.newORB()
	if _, err := s.part.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.res = make([][participantsPerTx]*participant, rc.clients)
	s.refs = make([][participantsPerTx]orb.IOR, rc.clients)
	for w := range s.res {
		for j := range s.res[w] {
			p := &participant{}
			s.res[w][j] = p
			s.refs[w][j] = orb.ExportResource(s.part, p)
		}
	}
	ok = true
	return s, nil
}

// takeover is the leader's Takeover callback: host the transaction
// service over the group log behind the quorum decision gate, as
// activityd's group mode does.
func (s *commitSys) takeover(context.Context) error {
	gate := s.nodes[0].g.DecisionGate(gateInterval)
	opts := []ots.Option{ots.WithDecisionGate(gate)}
	if s.rc.traced() {
		opts = []ots.Option{ots.WithDecisionGate(s.timedGate(gate)), ots.WithEventHook(s.onEvent)}
	}
	res, err := orb.HostRecovery(s.nodes[0].node, s.nodes[0].log, opts...)
	if err != nil {
		return err
	}
	s.svc = res.Service
	return nil
}

func (s *commitSys) timedGate(gate func(uint64) error) func(uint64) error {
	return func(lsn uint64) error {
		t0 := time.Now()
		err := gate(lsn)
		t1 := time.Now()
		if s.rc.on.Load() {
			// The gate sees only an LSN, so its spans carry no op id.
			s.rc.tr.record(s.kGate, 0, t0, t1)
			s.gateMu.Lock()
			s.gateHist.add(t1.Sub(t0))
			s.gateMu.Unlock()
		}
		return err
	}
}

// onEvent stamps commit-protocol boundaries; it runs synchronously on
// the committing goroutine.
func (s *commitSys) onEvent(e ots.Event) {
	v, ok := s.inflight.Load(e.Tx)
	if !ok {
		return
	}
	st := v.(*txStamps)
	now := time.Now()
	switch e.Stage {
	case ots.StagePrepared:
		st.prepared = now
	case ots.StageDecisionLogged:
		st.decided = now
	case ots.StageCommitDelivered:
		st.delivered = now
	case ots.StageDone:
		st.done = now
	}
}

// timedResource times the coordinator's calls on a remote participant.
type timedResource struct {
	ots.NamedResource
	s  *commitSys
	op uint64
}

func (r *timedResource) Prepare() (ots.Vote, error) {
	t0 := time.Now()
	v, err := r.NamedResource.Prepare()
	r.s.rc.span(r.s.kPart, r.op, t0, time.Now())
	return v, err
}

func (r *timedResource) Commit() error {
	t0 := time.Now()
	err := r.NamedResource.Commit()
	r.s.rc.span(r.s.kPart, r.op, t0, time.Now())
	return err
}

func (s *commitSys) op(w int, seq uint64) error {
	var before [participantsPerTx][3]int64
	for j, p := range s.res[w] {
		before[j] = [3]int64{p.prepares.Load(), p.commits.Load(), p.rollbacks.Load()}
	}
	leaderORB := s.nodes[0].node
	var err error
	if s.rc.traced() {
		err = s.tracedCommit(w, seq)
	} else {
		tx := s.svc.Begin()
		for j := 0; j < participantsPerTx && err == nil; j++ {
			err = tx.RegisterResource(orb.ImportResource(leaderORB, s.refs[w][j]))
		}
		if err == nil {
			err = tx.Commit(false)
		}
	}
	if err != nil {
		return err
	}
	for j, p := range s.res[w] {
		got := [3]int64{p.prepares.Load() - before[j][0], p.commits.Load() - before[j][1], p.rollbacks.Load() - before[j][2]}
		if got != [3]int64{1, 1, 0} {
			return fmt.Errorf("participant %d saw prepare/commit/rollback %v, want [1 1 0]", j, got)
		}
	}
	return nil
}

func (s *commitSys) tracedCommit(w int, seq uint64) error {
	rc := s.rc
	leaderORB := s.nodes[0].node
	t0 := time.Now()
	tx := s.svc.Begin()
	rc.span(s.kBegin, seq, t0, time.Now())
	for j := 0; j < participantsPerTx; j++ {
		t := time.Now()
		r := &timedResource{NamedResource: orb.ImportResource(leaderORB, s.refs[w][j]), s: s, op: seq}
		err := tx.RegisterResource(r)
		rc.span(s.kRegister, seq, t, time.Now())
		if err != nil {
			return err
		}
	}
	st := &txStamps{}
	s.inflight.Store(tx.ID(), st)
	st.start = time.Now()
	err := tx.Commit(false)
	end := time.Now()
	s.inflight.Delete(tx.ID())
	rc.span(s.kCommit, seq, st.start, end)
	if err == nil && !st.done.IsZero() {
		rc.span(s.kPrepare, seq, st.start, st.prepared)
		rc.span(s.kDecision, seq, st.prepared, st.decided)
		rc.span(s.kPhase2, seq, st.decided, st.delivered)
		rc.span(s.kDone, seq, st.delivered, st.done)
		rc.span(s.kProtocol, seq, st.start, st.done)
	}
	return err
}

// settle waits until both followers hold the leader's whole log, so
// every round's measured window starts from the same replication state.
func (s *commitSys) settle() error {
	return s.waitReplicated(10 * time.Second)
}

func (s *commitSys) waitReplicated(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		last := s.nodes[0].log.LastLSN()
		if s.nodes[1].log.LastLSN() == last && s.nodes[2].log.LastLSN() == last {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("followers at LSN %d/%d, leader at %d after %v",
				s.nodes[1].log.LastLSN(), s.nodes[2].log.LastLSN(), last, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *commitSys) mark() {
	s.markLSN = s.nodes[0].log.LastLSN()
	s.markSize = fileSize(s.nodes[0].path)
	s.markFetches = s.nodes[1].fetches.Load() + s.nodes[2].fetches.Load()
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// sampleLag is the mean lag of the two followers behind the leader, in
// records.
func (s *commitSys) sampleLag() float64 {
	last := float64(s.nodes[0].log.LastLSN())
	lag := (2*last - float64(s.nodes[1].log.LastLSN()) - float64(s.nodes[2].log.LastLSN())) / 2
	return max(lag, 0)
}

// verify checks that the followers converged on the leader's log — same
// last LSN, identical records over the shared prefix — and that no
// election happened.
func (s *commitSys) verify() error {
	if err := s.waitReplicated(10 * time.Second); err != nil {
		return err
	}
	want, err := s.nodes[0].log.RecordsSince(0)
	if err != nil {
		return err
	}
	for _, n := range s.nodes[1:] {
		got, err := n.log.RecordsSince(0)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("follower %s holds %d records, leader %d", n.id, len(got), len(want))
		}
		for i := range want {
			if got[i].LSN != want[i].LSN || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
				return fmt.Errorf("follower %s diverges from the leader at LSN %d", n.id, want[i].LSN)
			}
		}
	}
	if e := s.elections(); e != 0 {
		return fmt.Errorf("%d elections during the round", e)
	}
	if s.nodes[0].g.Role() != orb.RoleLeader {
		return errors.New("leader lost its role")
	}
	return nil
}

// elections counts elections beyond the leader's initial promotion.
func (s *commitSys) elections() uint64 {
	var n uint64
	for _, m := range s.nodes {
		n += m.g.Scrape().Elections
	}
	return n - 1
}

func (s *commitSys) layerMetrics(ops int) map[string]float64 {
	f := float64(ops)
	size := fileSize(s.nodes[0].path)
	fetches := s.nodes[1].fetches.Load() + s.nodes[2].fetches.Load()
	m := map[string]float64{
		"wal.records_per_op":         float64(s.nodes[0].log.LastLSN()-s.markLSN) / f,
		"wal.bytes_per_op":           float64(size-s.markSize) / f,
		"wal.log_bytes_end":          float64(size),
		"remote.repl_fetches_per_op": float64(fetches-s.markFetches) / f,
		"remote.elections":           float64(s.elections()),
		"remote.gate_wait_p90_ms":    s.gateHist.quantile(0.90),
	}
	return m
}

func (s *commitSys) orbs() []*orb.ORB {
	out := []*orb.ORB{}
	for _, n := range s.nodes {
		if n != nil {
			out = append(out, n.node)
		}
	}
	if s.part != nil {
		out = append(out, s.part)
	}
	return out
}

func (s *commitSys) close() {
	if s.cancel != nil {
		s.cancel()
	}
	s.runs.Wait()
	// Closing the logs first wakes replication fetches parked in the
	// leader's long poll, so the ORBs shut down without waiting it out.
	for _, n := range s.nodes {
		if n != nil && n.log != nil {
			n.log.Close()
		}
	}
	for _, n := range s.nodes {
		if n != nil {
			n.node.Shutdown()
		}
	}
	if s.part != nil {
		s.part.Shutdown()
	}
}
