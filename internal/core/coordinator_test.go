package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/trace"
)

func testGen() *ids.Generator { return ids.NewSeeded(0xFEED) }

// collectingAction records the signals it receives.
type collectingAction struct {
	mu      sync.Mutex
	name    string
	signals []Signal
	outcome Outcome
	fail    int // fail this many deliveries before succeeding
}

func (c *collectingAction) ProcessSignal(_ context.Context, sig Signal) (Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail > 0 {
		c.fail--
		return Outcome{}, fmt.Errorf("%s: transient failure", c.name)
	}
	c.signals = append(c.signals, sig)
	out := c.outcome
	if out.Name == "" {
		out = Outcome{Name: "ok"}
	}
	return out, nil
}

func (c *collectingAction) Signals() []Signal {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Signal(nil), c.signals...)
}

func TestCoordinatorBroadcastsToAllActionsInOrder(t *testing.T) {
	rec := trace.New()
	coord := newCoordinator("A", testGen(), rec, RetryPolicy{Attempts: 1}, DeliveryPolicy{}, nil)
	var order []string
	var mu sync.Mutex
	for _, name := range []string{"a1", "a2", "a3"} {
		name := name
		coord.AddNamedAction("set", name, ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
			mu.Lock()
			order = append(order, name+":"+sig.Name)
			mu.Unlock()
			return Outcome{Name: "done"}, nil
		}))
	}
	set := NewSequenceSet("set", "s1", "s2")
	if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1:s1", "a2:s1", "a3:s1", "a1:s2", "a2:s2", "a3:s2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCoordinatorFeedsEveryResponse(t *testing.T) {
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1}, DeliveryPolicy{}, nil)
	for i := 0; i < 4; i++ {
		coord.AddAction("set", &collectingAction{name: fmt.Sprintf("a%d", i)})
	}
	set := NewSequenceSet("set", "only")
	if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	if got := len(set.Responses()); got != 4 {
		t.Fatalf("set received %d responses, want 4", got)
	}
}

// advanceSet asks the coordinator to cut the broadcast short after the
// first response to "probe", then sends "final".
type advanceSet struct {
	BaseSet

	mu    sync.Mutex
	stage int
	resps []Outcome
}

func (s *advanceSet) GetSignal() (Signal, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.stage {
	case 0:
		s.stage = 1
		return Signal{Name: "probe", SetName: s.Name()}, false, nil
	case 1:
		s.stage = 2
		return Signal{Name: "final", SetName: s.Name()}, true, nil
	default:
		return Signal{}, false, ErrExhausted
	}
}

func (s *advanceSet) SetResponse(resp Outcome, _ error) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resps = append(s.resps, resp)
	// Advance as soon as the first probe response arrives.
	return s.stage == 1, nil
}

func (s *advanceSet) GetOutcome() (Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Outcome{Name: "advanced", Data: int64(len(s.resps))}, nil
}

func TestCoordinatorHonoursEarlyAdvance(t *testing.T) {
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1}, DeliveryPolicy{}, nil)
	a1 := &collectingAction{name: "a1"}
	a2 := &collectingAction{name: "a2"}
	coord.AddNamedAction("adv", "a1", a1)
	coord.AddNamedAction("adv", "a2", a2)
	set := &advanceSet{BaseSet: NewBaseSet("adv")}
	out, err := coord.ProcessSignalSet(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	// probe went only to a1 (advance cut the broadcast); final to both.
	if sigs := a1.Signals(); len(sigs) != 2 || sigs[0].Name != "probe" || sigs[1].Name != "final" {
		t.Fatalf("a1 signals = %v", sigs)
	}
	if sigs := a2.Signals(); len(sigs) != 1 || sigs[0].Name != "final" {
		t.Fatalf("a2 signals = %v", sigs)
	}
	if out.Name != "advanced" || out.Data != int64(3) {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestCoordinatorAtLeastOnceRetry(t *testing.T) {
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 3}, DeliveryPolicy{}, nil)
	flaky := &collectingAction{name: "flaky", fail: 2}
	coord.AddAction("set", flaky)
	set := NewSequenceSet("set", "ping")
	if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	if sigs := flaky.Signals(); len(sigs) != 1 {
		t.Fatalf("flaky processed %d signals, want 1 (after retries)", len(sigs))
	}
	rs := set.Responses()
	if len(rs) != 1 || rs[0].Name != "ok" {
		t.Fatalf("responses = %v", rs)
	}
}

func TestCoordinatorDeliveryFailureReachesSet(t *testing.T) {
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 2}, DeliveryPolicy{}, nil)
	dead := &collectingAction{name: "dead", fail: 99}
	coord.AddAction("set", dead)
	set := NewSequenceSet("set", "ping")
	if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	rs := set.Responses()
	if len(rs) != 1 || rs[0].Name != "delivery-error" {
		t.Fatalf("responses = %v", rs)
	}
}

func TestRemoveAction(t *testing.T) {
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1}, DeliveryPolicy{}, nil)
	a := &collectingAction{name: "a"}
	id := coord.AddAction("set", a)
	if coord.ActionCount("set") != 1 {
		t.Fatal("count != 1")
	}
	if !coord.RemoveAction("set", id) {
		t.Fatal("remove failed")
	}
	if coord.RemoveAction("set", id) {
		t.Fatal("second remove succeeded")
	}
	set := NewSequenceSet("set", "ping")
	if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	if len(a.Signals()) != 0 {
		t.Fatal("removed action still received signals")
	}
}

func TestActionsRegisterWithSetsNotSignals(t *testing.T) {
	// Fig. 6 multiplicity: one action may register with several sets, and
	// an activity may use several sets over its lifetime.
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1}, DeliveryPolicy{}, nil)
	shared := &collectingAction{name: "shared"}
	coord.AddAction("setA", shared)
	coord.AddAction("setB", shared)
	for _, set := range []*SequenceSet{NewSequenceSet("setA", "x"), NewSequenceSet("setB", "y", "z")} {
		if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(shared.Signals()); got != 3 {
		t.Fatalf("shared action received %d signals, want 3", got)
	}
}

// TestFig8TwoPhaseCommitTrace reproduces the exact exchange of fig. 8:
// get_signal / prepare→A1 / set_response / prepare→A2 / set_response /
// get_signal / commit→A1 / set_response / commit→A2 / set_response /
// get_outcome.
func TestFig8TwoPhaseCommitTrace(t *testing.T) {
	rec := trace.New()
	coord := newCoordinator("coordinator", testGen(), rec, RetryPolicy{Attempts: 1}, DeliveryPolicy{}, nil)
	for _, n := range []string{"action1", "action2"} {
		coord.AddNamedAction("2pc", n, ActionFunc(func(context.Context, Signal) (Outcome, error) {
			return Outcome{Name: "done"}, nil
		}))
	}
	set := NewSequenceSet("2pc", "prepare", "commit")
	if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	want := []string{
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
		"get_outcome:coordinator->2pc:completed",
	}
	got := rec.Sequence()
	if len(got) != len(want) {
		t.Fatalf("trace length %d, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q\nfull: %v", i, got[i], want[i], got)
		}
	}
}

func TestCoordinatorErrorOnBrokenSet(t *testing.T) {
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1}, DeliveryPolicy{}, nil)
	set := &brokenSet{BaseSet: NewBaseSet("broken")}
	if _, err := coord.ProcessSignalSet(context.Background(), set); err == nil {
		t.Fatal("broken set did not error")
	}
}

type brokenSet struct {
	BaseSet
}

func (b *brokenSet) GetSignal() (Signal, bool, error) {
	return Signal{}, false, errors.New("internal fault")
}

func (b *brokenSet) SetResponse(Outcome, error) (bool, error) { return false, nil }

func (b *brokenSet) GetOutcome() (Outcome, error) { return Outcome{}, nil }

// TestCoordinatorStripedRegistrationStress hammers the striped
// registration map from many goroutines — concurrent AddAction,
// RemoveAction and ActionCount across many sets, including sets that
// collide on one stripe — and then verifies no registration was lost or
// double-removed: the exact survivor count per set, with every removal
// having reported true exactly once. Run under -race this also pins the
// striping's memory-safety.
func TestCoordinatorStripedRegistrationStress(t *testing.T) {
	coord := newCoordinator("stress", testGen(), nil, RetryPolicy{Attempts: 1}, DeliveryPolicy{}, nil)
	const (
		sets       = 48
		workers    = 8
		perWorker  = 50 // adds per worker per set
		removeEach = 20 // removals per worker per set
	)
	setName := func(i int) string { return fmt.Sprintf("set-%d", i) }

	type rm struct {
		set string
		id  ActionID
	}
	var wg sync.WaitGroup
	removedCh := make(chan rm, sets*workers*removeEach)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < sets; s++ {
				name := setName(s)
				ids := make([]ActionID, 0, perWorker)
				for i := 0; i < perWorker; i++ {
					ids = append(ids, coord.AddAction(name, noopTestAction{}))
					coord.ActionCount(name) // reader mixed into the storm
				}
				for i := 0; i < removeEach; i++ {
					if !coord.RemoveAction(name, ids[i]) {
						t.Errorf("RemoveAction(%s, %v) lost a registration it owned", name, ids[i])
						return
					}
					removedCh <- rm{set: name, id: ids[i]}
				}
			}
		}()
	}
	wg.Wait()
	close(removedCh)

	// Every removal reported true exactly once; removing again must fail.
	for r := range removedCh {
		if coord.RemoveAction(r.set, r.id) {
			t.Fatalf("RemoveAction(%s, %v) succeeded twice", r.set, r.id)
		}
	}
	want := workers * (perWorker - removeEach)
	for s := 0; s < sets; s++ {
		if got := coord.ActionCount(setName(s)); got != want {
			t.Fatalf("set %s: %d registrations survived, want %d", setName(s), got, want)
		}
	}
}

// noopTestAction is a minimal Action for registration-only tests.
type noopTestAction struct{}

// ProcessSignal implements Action.
func (noopTestAction) ProcessSignal(context.Context, Signal) (Outcome, error) {
	return Outcome{Name: "ok"}, nil
}
