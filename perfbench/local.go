package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/twopc"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// activity_2pc_local: in-process two-phase commit carried by the
// activity framework (hls/twopc over internal/core) with eight in-memory
// resources. No ORB and no WAL run, so only the coordinator, signal
// sets, the registration map and id generation are measured.
var activity2PCLocal = &workload{
	name:        "activity_2pc_local",
	opsPerRound: 100000,
	warmup:      1000,
	spans: []spanDef{
		{"op", ""},
		{"core.begin", "op"},
		{"core.enlist", "op"},
		{"core.commit", "op"},
		{"core.resource", "core.commit"},
	},
	spanMetrics: func(tr *tracer, ops int) map[string]float64 {
		return map[string]float64{
			"core.begin_us":  tr.callMeanMs("core.begin") * 1e3,
			"core.enlist_us": tr.callMeanMs("core.enlist") * 1e3,
			"core.commit_us": tr.callMeanMs("core.commit") * 1e3,
		}
	},
	build: buildLocal,
}

// resourcesPerTx is the number of resources enlisted in every local
// two-phase commit.
const resourcesPerTx = 8

// memResource is an in-memory participant counting protocol calls.
type memResource struct {
	prepares, commits, rollbacks atomic.Int64
}

func (r *memResource) Prepare() (ots.Vote, error) { r.prepares.Add(1); return ots.VoteCommit, nil }
func (r *memResource) Commit() error              { r.commits.Add(1); return nil }
func (r *memResource) Rollback() error            { r.rollbacks.Add(1); return nil }
func (r *memResource) CommitOnePhase() error      { r.commits.Add(1); return nil }
func (r *memResource) Forget() error              { return nil }

// timedMemResource times the coordinator's calls on a resource.
type timedMemResource struct {
	*memResource
	s  *localSys
	op uint64
}

func (r *timedMemResource) Prepare() (ots.Vote, error) {
	t0 := time.Now()
	v, err := r.memResource.Prepare()
	r.s.rc.span(r.s.kRes, r.op, t0, time.Now())
	return v, err
}

func (r *timedMemResource) Commit() error {
	t0 := time.Now()
	err := r.memResource.Commit()
	r.s.rc.span(r.s.kRes, r.op, t0, time.Now())
	return err
}

type localSys struct {
	rc    *roundCtx
	coord *twopc.Coordinator
	res   [][resourcesPerTx]*memResource

	kBegin, kEnlist, kCommit, kRes int
	markCalls                      int64
}

func buildLocal(rc *roundCtx) (system, error) {
	s := &localSys{rc: rc, coord: twopc.NewCoordinator(activityservice.New())}
	s.res = make([][resourcesPerTx]*memResource, rc.clients)
	for w := range s.res {
		for j := range s.res[w] {
			s.res[w][j] = &memResource{}
		}
	}
	if rc.traced() {
		s.kBegin, s.kEnlist = rc.tr.kind("core.begin"), rc.tr.kind("core.enlist")
		s.kCommit, s.kRes = rc.tr.kind("core.commit"), rc.tr.kind("core.resource")
	}
	return s, nil
}

func (s *localSys) op(w int, seq uint64) error {
	rc := s.rc
	traced := rc.traced()
	var before [resourcesPerTx][3]int64
	for j, r := range s.res[w] {
		before[j] = [3]int64{r.prepares.Load(), r.commits.Load(), r.rollbacks.Load()}
	}
	name := rc.names[seq%uint64(len(rc.names))]
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	tx, err := s.coord.Begin(name)
	if traced {
		rc.span(s.kBegin, seq, t0, time.Now())
	}
	if err != nil {
		return err
	}
	for _, r := range s.res[w] {
		if traced {
			t0 = time.Now()
			err = tx.Enlist(&timedMemResource{memResource: r, s: s, op: seq})
			rc.span(s.kEnlist, seq, t0, time.Now())
		} else {
			err = tx.Enlist(r)
		}
		if err != nil {
			return err
		}
	}
	if traced {
		t0 = time.Now()
	}
	committed, err := tx.Commit(context.Background())
	if traced {
		rc.span(s.kCommit, seq, t0, time.Now())
	}
	if err != nil {
		return err
	}
	if !committed {
		return errors.New("commit reported rolled back")
	}
	for j, r := range s.res[w] {
		got := [3]int64{r.prepares.Load() - before[j][0], r.commits.Load() - before[j][1], r.rollbacks.Load() - before[j][2]}
		if got != [3]int64{1, 1, 0} {
			return fmt.Errorf("resource %d saw prepare/commit/rollback %v, want [1 1 0]", j, got)
		}
	}
	return nil
}

// calls counts the protocol calls every resource has received.
func (s *localSys) calls() int64 {
	var n int64
	for _, rs := range s.res {
		for _, r := range rs {
			n += r.prepares.Load() + r.commits.Load() + r.rollbacks.Load()
		}
	}
	return n
}

func (s *localSys) mark()         { s.markCalls = s.calls() }
func (s *localSys) verify() error { return nil }

func (s *localSys) layerMetrics(ops int) map[string]float64 {
	return map[string]float64{
		"core.deliveries_per_op": float64(s.calls()-s.markCalls) / float64(ops),
	}
}

func (s *localSys) orbs() []*orb.ORB { return nil }
func (s *localSys) close()           {}
