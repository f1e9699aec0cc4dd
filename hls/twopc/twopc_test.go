package twopc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/trace"
)

// scriptedResource is a 2PC participant with scriptable votes and a call
// log.
type scriptedResource struct {
	mu    sync.Mutex
	vote  ots.Vote
	calls []string
}

func newResource(vote ots.Vote) *scriptedResource {
	return &scriptedResource{vote: vote}
}

func (r *scriptedResource) log(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, s)
}

func (r *scriptedResource) Calls() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.calls...)
}

func (r *scriptedResource) Prepare() (ots.Vote, error) {
	r.log("prepare")
	return r.vote, nil
}

func (r *scriptedResource) Commit() error         { r.log("commit"); return nil }
func (r *scriptedResource) Rollback() error       { r.log("rollback"); return nil }
func (r *scriptedResource) CommitOnePhase() error { r.log("commit_one_phase"); return nil }
func (r *scriptedResource) Forget() error         { r.log("forget"); return nil }

func TestCommitHappyPath(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, err := coord.Begin("T")
	if err != nil {
		t.Fatal(err)
	}
	a, b := newResource(ots.VoteCommit), newResource(ots.VoteCommit)
	if err := tx.Enlist(a); err != nil {
		t.Fatal(err)
	}
	if err := tx.Enlist(b); err != nil {
		t.Fatal(err)
	}
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("transaction did not commit")
	}
	for _, r := range []*scriptedResource{a, b} {
		calls := r.Calls()
		if len(calls) != 2 || calls[0] != "prepare" || calls[1] != "commit" {
			t.Fatalf("calls = %v", calls)
		}
	}
}

func TestVetoRollsEveryoneBack(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("T")
	good := newResource(ots.VoteCommit)
	veto := newResource(ots.VoteRollback)
	late := newResource(ots.VoteCommit)
	_ = tx.Enlist(good)
	_ = tx.Enlist(veto)
	_ = tx.Enlist(late)

	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed despite veto")
	}
	// good prepared, then rolled back.
	gc := good.Calls()
	if len(gc) != 2 || gc[0] != "prepare" || gc[1] != "rollback" {
		t.Fatalf("good calls = %v", gc)
	}
	// late was never asked to prepare (abort cut the broadcast) but still
	// hears the rollback, matching the OTS treatment of not-yet-asked
	// participants.
	lc := late.Calls()
	if len(lc) != 1 || lc[0] != "rollback" {
		t.Fatalf("late calls = %v", lc)
	}
	// the vetoing resource rolled itself back at prepare: no second call.
	vc := veto.Calls()
	if len(vc) != 1 || vc[0] != "prepare" {
		t.Fatalf("veto calls = %v", vc)
	}
}

func TestReadOnlyParticipant(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("T")
	ro := newResource(ots.VoteReadOnly)
	rw := newResource(ots.VoteCommit)
	_ = tx.Enlist(ro)
	_ = tx.Enlist(rw)
	committed, err := tx.Commit(context.Background())
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	// The read-only participant sees commit but performs nothing.
	rc := ro.Calls()
	if len(rc) != 1 || rc[0] != "prepare" {
		t.Fatalf("read-only calls = %v", rc)
	}
}

func TestExplicitRollback(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("T")
	r := newResource(ots.VoteCommit)
	_ = tx.Enlist(r)
	if err := tx.Rollback(context.Background()); err != nil {
		t.Fatal(err)
	}
	calls := r.Calls()
	if len(calls) != 1 || calls[0] != "rollback" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestVarsCommitThroughActivity2PC(t *testing.T) {
	// End to end with real transactional variables: note the Vars join the
	// *activity* protocol directly as resources, without an ots
	// transaction — the activity coordinator IS the transaction manager
	// here, which is the point of §4.1.
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("transfer")
	from := &balanceResource{balance: 100}
	to := &balanceResource{balance: 10}
	from.pending = -25
	to.pending = 25
	_ = tx.Enlist(from)
	_ = tx.Enlist(to)
	committed, err := tx.Commit(context.Background())
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	if from.balance != 75 || to.balance != 35 {
		t.Fatalf("balances = %d, %d", from.balance, to.balance)
	}
}

// balanceResource applies a pending delta on commit.
type balanceResource struct {
	mu      sync.Mutex
	balance int
	pending int
}

func (b *balanceResource) Prepare() (ots.Vote, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.balance+b.pending < 0 {
		return ots.VoteRollback, nil
	}
	return ots.VoteCommit, nil
}

func (b *balanceResource) Commit() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.balance += b.pending
	b.pending = 0
	return nil
}

func (b *balanceResource) Rollback() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending = 0
	return nil
}

func (b *balanceResource) CommitOnePhase() error { return b.Commit() }
func (b *balanceResource) Forget() error         { return nil }

func TestInsufficientFundsAborts(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("overdraft")
	from := &balanceResource{balance: 10, pending: -25}
	to := &balanceResource{balance: 0, pending: 25}
	_ = tx.Enlist(from)
	_ = tx.Enlist(to)
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("overdraft committed")
	}
	if from.balance != 10 || to.balance != 0 {
		t.Fatalf("balances mutated: %d, %d", from.balance, to.balance)
	}
}

// TestFig8MessageSequence verifies the full fig. 8 exchange through the
// public API, with the exact arrows of the paper's sequence chart.
func TestFig8MessageSequence(t *testing.T) {
	rec := trace.New()
	svc := core.New(core.WithTrace(rec))
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("coordinator")
	_ = tx.EnlistNamed("action1", newResource(ots.VoteCommit))
	_ = tx.EnlistNamed("action2", newResource(ots.VoteCommit))
	committed, err := tx.Commit(context.Background())
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	want := []string{
		"begin:coordinator",
		"get_signal:coordinator->2pc:prepare",
		"transmit:coordinator->action1:prepare",
		"set_response:action1->2pc:done",
		"transmit:coordinator->action2:prepare",
		"set_response:action2->2pc:done",
		"get_signal:coordinator->2pc:commit",
		"transmit:coordinator->action1:commit",
		"set_response:action1->2pc:done",
		"transmit:coordinator->action2:commit",
		"set_response:action2->2pc:done",
		"get_outcome:coordinator->2pc:committed",
		"complete:coordinator:committed",
	}
	got := rec.Sequence()
	if len(got) != len(want) {
		t.Fatalf("trace:\n%v\nwant:\n%v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestManyParticipantsScale(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	for _, n := range []int{1, 8, 64} {
		tx, _ := coord.Begin(fmt.Sprintf("T%d", n))
		resources := make([]*scriptedResource, n)
		for i := range resources {
			resources[i] = newResource(ots.VoteCommit)
			_ = tx.Enlist(resources[i])
		}
		committed, err := tx.Commit(context.Background())
		if err != nil || !committed {
			t.Fatalf("n=%d: committed=%v err=%v", n, committed, err)
		}
		for i, r := range resources {
			if calls := r.Calls(); len(calls) != 2 {
				t.Fatalf("n=%d participant %d calls = %v", n, i, calls)
			}
		}
	}
}

func TestPrepareErrorTreatedAsVeto(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("T")
	bad := &failingResource{}
	good := newResource(ots.VoteCommit)
	_ = tx.Enlist(good)
	_ = tx.Enlist(bad)
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed despite prepare error")
	}
	gc := good.Calls()
	if len(gc) != 2 || gc[1] != "rollback" {
		t.Fatalf("good calls = %v", gc)
	}
}

type failingResource struct{}

func (f *failingResource) Prepare() (ots.Vote, error) {
	return 0, errors.New("prepare exploded")
}
func (f *failingResource) Commit() error         { return nil }
func (f *failingResource) Rollback() error       { return nil }
func (f *failingResource) CommitOnePhase() error { return nil }
func (f *failingResource) Forget() error         { return nil }

// TestParallelPrepareCommits drives 2PC with parallel delivery: every
// participant votes concurrently, the outcome and each participant's call
// sequence are identical to serial delivery.
func TestParallelPrepareCommits(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc, WithDelivery(core.Parallel()))
	tx, err := coord.Begin("T")
	if err != nil {
		t.Fatal(err)
	}
	var rs []*scriptedResource
	for i := 0; i < 16; i++ {
		r := newResource(ots.VoteCommit)
		rs = append(rs, r)
		if err := tx.Enlist(r); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("transaction did not commit")
	}
	for i, r := range rs {
		calls := r.Calls()
		if len(calls) != 2 || calls[0] != "prepare" || calls[1] != "commit" {
			t.Fatalf("participant %d calls = %v", i, calls)
		}
	}
}

// TestParallelVetoRollsBack verifies the collated outcome of a vetoed
// parallel 2PC matches serial: rolled back, with every prepared
// participant released. (Parallel prepare is speculative, so unlike the
// serial short-circuit, participants enlisted after the vetoer may also
// have been asked to prepare — but all of them hear the rollback.)
func TestParallelVetoRollsBack(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc, WithDelivery(core.Parallel()))
	tx, err := coord.Begin("T")
	if err != nil {
		t.Fatal(err)
	}
	good := newResource(ots.VoteCommit)
	veto := newResource(ots.VoteRollback)
	late := newResource(ots.VoteCommit)
	for _, r := range []*scriptedResource{good, veto, late} {
		if err := tx.Enlist(r); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed despite veto")
	}
	gc := good.Calls()
	if len(gc) != 2 || gc[0] != "prepare" || gc[1] != "rollback" {
		t.Fatalf("good calls = %v", gc)
	}
	// The vetoing resource rolled itself back at prepare: no second call.
	vc := veto.Calls()
	if len(vc) != 1 || vc[0] != "prepare" {
		t.Fatalf("veto calls = %v", vc)
	}
	// late hears the rollback last, whether or not its speculative prepare
	// landed first.
	lc := late.Calls()
	if len(lc) == 0 || lc[len(lc)-1] != "rollback" {
		t.Fatalf("late calls = %v", lc)
	}
}

// TestEnlistRacingCommitNeverDropsParticipant races concurrent Enlist
// calls against Commit: every Enlist that returns nil must take part in
// the protocol (prepared and committed exactly once), and every Enlist
// that loses the race must fail with core.ErrActivityInactive. A
// participant accepted after the prepare broadcast snapshotted its
// targets would be silently left out of a transaction reported committed.
func TestEnlistRacingCommitNeverDropsParticipant(t *testing.T) {
	const (
		txs       = 3000
		enlisters = 8
	)
	coord := NewCoordinator(core.New())
	ctx := context.Background()
	dropped, accepted := 0, 0
	for i := 0; i < txs; i++ {
		tx, err := coord.Begin("race")
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg       sync.WaitGroup
			start    = make(chan struct{})
			res      [enlisters]*scriptedResource
			enlisted [enlisters]error
		)
		for j := range res {
			res[j] = newResource(ots.VoteCommit)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				enlisted[j] = tx.Enlist(res[j])
			}()
		}
		close(start)
		committed, err := tx.Commit(ctx)
		wg.Wait()
		if err != nil || !committed {
			t.Fatalf("tx %d: committed=%v err=%v", i, committed, err)
		}
		for j, r := range res {
			calls := r.Calls()
			switch {
			case enlisted[j] == nil:
				accepted++
				if len(calls) != 2 || calls[0] != "prepare" || calls[1] != "commit" {
					dropped++
				}
			case !errors.Is(enlisted[j], core.ErrActivityInactive):
				t.Fatalf("tx %d: Enlist failed with %v, want ErrActivityInactive", i, enlisted[j])
			case len(calls) != 0:
				t.Fatalf("tx %d: rejected participant saw %v", i, calls)
			}
		}
	}
	if dropped != 0 {
		t.Fatalf("%d of %d accepted participants were never prepared and committed", dropped, accepted)
	}
}
