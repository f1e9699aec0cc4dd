package main

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/orb"
)

// activity_fanout: remote activities through the shard router. A
// shard-map authority and two fleet members (activityd's -shard wiring,
// default serial delivery, no journal); the client begins each activity
// on the member owning its seeded name, enrols eight actions hosted on
// its own listening ORB, and completes it, so every action receives the
// completion signal over the wire. No WAL work happens here.
var activityFanout = &workload{
	name:        "activity_fanout",
	opsPerRound: 3000,
	warmup:      100,
	spans: []spanDef{
		{"op", ""},
		{"remote.begin", "op"},
		{"remote.add_action", "op"},
		{"remote.complete", "op"},
		{"core.action", "remote.complete"}, // the action's own ProcessSignal
		// Complete call to the last action delivered.
		{"core.fanout", ""},
	},
	spanMetrics: func(tr *tracer, ops int) map[string]float64 {
		return map[string]float64{
			"remote.begin_ms":       tr.callMeanMs("remote.begin"),
			"remote.add_action_ms":  tr.callMeanMs("remote.add_action"),
			"remote.complete_ms":    tr.callMeanMs("remote.complete"),
			"core.signal_fanout_ms": tr.callMeanMs("core.fanout"),
		}
	},
	build: buildFanout,
}

// actionsPerActivity is the number of remote actions enrolled in every
// activity.
const actionsPerActivity = 8

// fleetSize is the number of shard members.
const fleetSize = 2

type fanoutSys struct {
	rc      *roundCtx
	auth    *orb.ORB
	members []*orb.ORB
	guards  []*orb.ShardMember
	client  *orb.ORB
	router  *orb.ShardRouter
	actions [][actionsPerActivity]*countingAction
	// per client: the op in flight and its Complete start / last delivery
	// (traced rounds)
	curOp     []atomic.Uint64
	lastDeliv []atomic.Int64

	kBegin, kAdd, kComplete, kAction, kFanout int
	markRouter                                orb.RouterStats
	markDeliv                                 int64
}

// countingAction is a client-hosted action that counts the signals it
// receives and flags any that is not the completion signal.
type countingAction struct {
	s     *fanoutSys
	w     int
	n     atomic.Int64
	wrong atomic.Int64
}

func (a *countingAction) ProcessSignal(_ context.Context, sig activityservice.Signal) (activityservice.Outcome, error) {
	var t0 time.Time
	traced := a.s.rc.traced()
	if traced {
		t0 = time.Now()
	}
	if sig.Name != "complete" || sig.SetName != activityservice.DefaultCompletionSet {
		a.wrong.Add(1)
	}
	a.n.Add(1)
	if traced {
		t1 := time.Now()
		a.s.rc.span(a.s.kAction, a.s.curOp[a.w].Load(), t0, t1)
		a.s.lastDeliv[a.w].Store(int64(t1.Sub(a.s.rc.tr.epoch)))
	}
	return activityservice.Outcome{Name: "acknowledged"}, nil
}

func buildFanout(rc *roundCtx) (system, error) {
	s := &fanoutSys{rc: rc}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if rc.traced() {
		s.kBegin, s.kAdd, s.kComplete = rc.tr.kind("remote.begin"), rc.tr.kind("remote.add_action"), rc.tr.kind("remote.complete")
		s.kAction, s.kFanout = rc.tr.kind("core.action"), rc.tr.kind("core.fanout")
	}
	s.auth = rc.newORB()
	if _, err := s.auth.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	orb.ServeShardMap(s.auth, orb.NewShardAuthority(nil))
	authRef := orb.ShardMapAt(s.auth.Endpoints()...)

	svcs := make([]*activityservice.Service, fleetSize)
	for i := 0; i < fleetSize; i++ {
		node := rc.newORB()
		s.members = append(s.members, node)
		orb.InstallPropagation(node)
		if _, err := node.Listen("127.0.0.1:0"); err != nil {
			return nil, err
		}
		id := fmt.Sprintf("m%d", i)
		svcs[i] = activityservice.New()
		s.guards = append(s.guards, orb.NewShardMember(node, id, authRef, orb.WithOnDrain(svcs[i].Drain)))
		if _, err := orb.NewShardMapClient(node, authRef).Add(ctx,
			orb.ClusterMember{ID: id, Endpoints: node.Endpoints(), Weight: 1}); err != nil {
			return nil, fmt.Errorf("shard join %s: %w", id, err)
		}
	}
	// Members sync once the map holds the whole fleet, so no begin is
	// ever redirected.
	for i, g := range s.guards {
		if err := g.Sync(ctx); err != nil {
			return nil, fmt.Errorf("shard map sync: %w", err)
		}
		go g.Run()
		orb.ServeActivityFactory(s.members[i], svcs[i], orb.WithFactoryShard(g))
	}

	s.client = rc.newORB(orb.WithPoolSize(rc.clients))
	if _, err := s.client.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.router = orb.NewShardRouter(s.client, authRef)
	if _, err := s.router.Refresh(ctx); err != nil {
		return nil, fmt.Errorf("router refresh: %w", err)
	}
	s.actions = make([][actionsPerActivity]*countingAction, rc.clients)
	s.curOp = make([]atomic.Uint64, rc.clients)
	s.lastDeliv = make([]atomic.Int64, rc.clients)
	for w := range s.actions {
		for j := range s.actions[w] {
			s.actions[w][j] = &countingAction{s: s, w: w}
		}
	}
	ok = true
	return s, nil
}

func (s *fanoutSys) op(w int, seq uint64) error {
	ctx := context.Background()
	rc := s.rc
	traced := rc.traced()
	var before [actionsPerActivity]int64
	for j, a := range s.actions[w] {
		before[j] = a.n.Load()
	}
	if traced {
		s.curOp[w].Store(seq)
	}
	name := rc.names[seq%uint64(len(rc.names))]
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	p, err := s.router.BeginActivity(ctx, name)
	if traced {
		rc.span(s.kBegin, seq, t0, time.Now())
	}
	if err != nil {
		return err
	}
	var refs [actionsPerActivity]orb.IOR
	defer func() {
		for _, r := range refs {
			if r.Key != "" {
				s.client.Deactivate(r.Key)
			}
		}
	}()
	for j, a := range s.actions[w] {
		if traced {
			t0 = time.Now()
		}
		refs[j], err = p.AddAction(ctx, activityservice.DefaultCompletionSet, a)
		if traced {
			rc.span(s.kAdd, seq, t0, time.Now())
		}
		if err != nil {
			return err
		}
	}
	if traced {
		t0 = time.Now()
	}
	out, err := p.Complete(ctx, activityservice.CompletionSuccess)
	if traced {
		t1 := time.Now()
		rc.span(s.kComplete, seq, t0, t1)
		if last := rc.tr.epoch.Add(time.Duration(s.lastDeliv[w].Load())); last.After(t0) {
			rc.span(s.kFanout, seq, t0, last)
		}
	}
	if err != nil {
		return err
	}
	if out.Name != "completed" || out.Data != int64(actionsPerActivity) {
		return fmt.Errorf("complete returned %s/%v, want completed/%d", out.Name, out.Data, actionsPerActivity)
	}
	for j, a := range s.actions[w] {
		if got := a.n.Load() - before[j]; got != 1 {
			return fmt.Errorf("action %d received %d completion signals, want 1", j, got)
		}
	}
	return nil
}

func (s *fanoutSys) deliveries() int64 {
	var n int64
	for _, acts := range s.actions {
		for _, a := range acts {
			n += a.n.Load()
		}
	}
	return n
}

func (s *fanoutSys) mark() {
	s.markRouter = s.router.Stats()
	s.markDeliv = s.deliveries()
}

// verify checks that no action ever received anything but the
// completion signal.
func (s *fanoutSys) verify() error {
	for w, acts := range s.actions {
		for j, a := range acts {
			if n := a.wrong.Load(); n != 0 {
				return fmt.Errorf("client %d action %d received %d signals other than complete", w, j, n)
			}
		}
	}
	return nil
}

func (s *fanoutSys) layerMetrics(ops int) map[string]float64 {
	st := s.router.Stats()
	return map[string]float64{
		"remote.router_refreshes": float64(st.Refreshes - s.markRouter.Refreshes),
		"remote.router_redirects": float64(st.Redirects - s.markRouter.Redirects),
		"core.deliveries_per_op":  float64(s.deliveries()-s.markDeliv) / float64(ops),
	}
}

func (s *fanoutSys) orbs() []*orb.ORB {
	var out []*orb.ORB
	for _, o := range append([]*orb.ORB{s.auth, s.client}, s.members...) {
		if o != nil {
			out = append(out, o)
		}
	}
	return out
}

func (s *fanoutSys) close() {
	for _, g := range s.guards {
		g.Stop()
	}
	if s.client != nil {
		s.client.Shutdown()
	}
	for _, m := range s.members {
		m.Shutdown()
	}
	if s.auth != nil {
		s.auth.Shutdown()
	}
}
