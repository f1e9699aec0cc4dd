package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/trace"
)

// receiptLog records which action received which signal.
type receiptLog struct {
	mu  sync.Mutex
	got map[string][]string // signal name → receiving actions, in arrival order
}

func (l *receiptLog) action(name string, hook func(sig Signal)) Action {
	return ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
		l.mu.Lock()
		if l.got == nil {
			l.got = make(map[string][]string)
		}
		l.got[sig.Name] = append(l.got[sig.Name], name)
		l.mu.Unlock()
		if hook != nil {
			hook(sig)
		}
		return Outcome{Name: "ok"}, nil
	})
}

// receivers returns the actions that received sig, in the given
// registration order (parallel delivery appends in completion order).
func (l *receiptLog) receivers(sig string, order []string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := make(map[string]bool)
	for _, n := range l.got[sig] {
		seen[n] = true
	}
	var out []string
	for _, n := range order {
		if seen[n] {
			out = append(out, n)
		}
	}
	return out
}

// TestBroadcastSnapshotIgnoresSelfMutation pins the snapshot semantics of
// a broadcast: an action that adds and removes registrations on its own
// coordinator mid-broadcast changes who receives the next signal, never
// who receives the current one. a1 appends x into the list's spare
// capacity (written in place, past the running snapshot) and a2 removes
// a3 (copy on write) while "s1" is being delivered.
func TestBroadcastSnapshotIgnoresSelfMutation(t *testing.T) {
	for _, policy := range []DeliveryPolicy{{Mode: DeliverSerial}, Parallel()} {
		t.Run(policy.Mode.String(), func(t *testing.T) {
			coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1}, policy, nil)
			var (
				log  receiptLog
				once [2]sync.Once
				a3   ActionID
			)
			coord.AddNamedAction("set", "a1", log.action("a1", func(Signal) {
				once[0].Do(func() { coord.AddNamedAction("set", "x", log.action("x", nil)) })
			}))
			coord.AddNamedAction("set", "a2", log.action("a2", func(Signal) {
				once[1].Do(func() {
					if !coord.RemoveAction("set", a3) {
						t.Error("RemoveAction(a3) found nothing")
					}
				})
			}))
			a3 = coord.AddNamedAction("set", "a3", log.action("a3", nil))

			if _, err := coord.ProcessSignalSet(context.Background(), NewSequenceSet("set", "s1", "s2")); err != nil {
				t.Fatal(err)
			}
			order := []string{"a1", "a2", "a3", "x"}
			if got, want := log.receivers("s1", order), []string{"a1", "a2", "a3"}; !reflect.DeepEqual(got, want) {
				t.Errorf("s1 receivers = %v, want %v", got, want)
			}
			if got, want := log.receivers("s2", order), []string{"a1", "a2", "x"}; !reflect.DeepEqual(got, want) {
				t.Errorf("s2 receivers = %v, want %v", got, want)
			}
			if got := coord.ActionCount("set"); got != 3 {
				t.Errorf("ActionCount = %d, want 3", got)
			}
		})
	}
}

// TestUnnamedActionLabelsInTraces pins the lazily formatted labels of
// unnamed registrations: with a recorder installed, transmit and response
// events name them action-1…N in every delivery mode, a named
// registration in between neither consumes a number nor loses its label,
// and tree planning sees the same labels.
func TestUnnamedActionLabelsInTraces(t *testing.T) {
	var planned []string
	planner := plannerFunc(func(members []TreeMember, branching int) TreePlan {
		for _, m := range members {
			planned = append(planned, m.Label)
		}
		return GreedyNearestPlanner{}.Plan(members, branching)
	})
	policies := []DeliveryPolicy{{Mode: DeliverSerial}, Parallel(), {Mode: DeliverTree, Planner: planner}}
	for _, policy := range policies {
		t.Run(policy.Mode.String(), func(t *testing.T) {
			planned = nil
			rec := trace.New()
			coord := newCoordinator("A", testGen(), rec, RetryPolicy{Attempts: 1}, policy, nil)
			coord.AddAction("set", deadRelay{})
			coord.AddAction("set", deadRelay{})
			coord.AddNamedAction("set", "named", deadRelay{})
			coord.AddAction("set", deadRelay{})
			if _, err := coord.ProcessSignalSet(context.Background(), NewSequenceSet("set", "go")); err != nil {
				t.Fatal(err)
			}
			want := []string{"action-1", "action-2", "named", "action-3"}
			var transmits, responses []string
			for _, e := range rec.Events() {
				switch e.Kind {
				case trace.KindTransmit:
					transmits = append(transmits, e.Target)
				case trace.KindResponse:
					responses = append(responses, e.Source)
				}
			}
			if !reflect.DeepEqual(transmits, want) {
				t.Errorf("transmit targets = %v, want %v", transmits, want)
			}
			if !reflect.DeepEqual(responses, want) {
				t.Errorf("response sources = %v, want %v", responses, want)
			}
			if policy.Mode == DeliverTree && !reflect.DeepEqual(planned, want) {
				t.Errorf("tree member labels = %v, want %v", planned, want)
			}
		})
	}
}

// plannerFunc adapts a function to TreePlanner.
type plannerFunc func(members []TreeMember, branching int) TreePlan

// Plan implements TreePlanner.
func (f plannerFunc) Plan(members []TreeMember, branching int) TreePlan { return f(members, branching) }

// deadRelay is a relay-capable action whose relay always fails, so tree
// delivery re-adopts it and delivers directly.
type deadRelay struct{}

// ProcessSignal implements Action.
func (deadRelay) ProcessSignal(context.Context, Signal) (Outcome, error) {
	return Outcome{Name: "ok"}, nil
}

// RelayInfo implements SubtreeDeliverer.
func (deadRelay) RelayInfo() RelayInfo { return RelayInfo{Node: "inproc:dead"} }

// DeliverSubtree implements SubtreeDeliverer.
func (deadRelay) DeliverSubtree(context.Context, Signal, *TreeNode, RetryPolicy) ([]SubtreeResult, error) {
	return nil, errors.New("relay down")
}

// countingSet broadcasts one signal and only counts responses, so driving
// it allocates nothing per response.
type countingSet struct {
	BaseSet
	sent, resps int
}

func (s *countingSet) GetSignal() (Signal, bool, error) {
	if s.sent > 0 {
		return Signal{}, false, ErrExhausted
	}
	s.sent++
	return Signal{Name: "go", SetName: s.Name()}, true, nil
}

func (s *countingSet) SetResponse(Outcome, error) (bool, error) { s.resps++; return false, nil }

func (s *countingSet) GetOutcome() (Outcome, error) { return Outcome{Name: "done"}, nil }

// TestSerialDeliveryAllocatesNothingPerAction pins the untraced serial
// hot path: driving a set allocates the same whether it reaches one
// action or 32, so no delivery formats a label (or anything else) when
// no recorder is installed.
func TestSerialDeliveryAllocatesNothingPerAction(t *testing.T) {
	gen := testGen()
	drive := func(actions int) float64 {
		// The set and coordinator are rebuilt every run (a driven set is
		// single-use); setup is measured separately and subtracted.
		setup := func() (*Coordinator, *countingSet) {
			coord := newCoordinator("A", gen, nil, RetryPolicy{Attempts: 1}, DeliveryPolicy{}, nil)
			for i := 0; i < actions; i++ {
				coord.AddAction("set", noopTestAction{})
			}
			return coord, &countingSet{BaseSet: NewBaseSet("set")}
		}
		base := testing.AllocsPerRun(100, func() { setup() })
		total := testing.AllocsPerRun(100, func() {
			coord, set := setup()
			if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
				panic(err)
			}
			if set.resps != actions {
				panic(fmt.Sprintf("%d responses, want %d", set.resps, actions))
			}
		})
		return total - base
	}
	if one, many := drive(1), drive(32); many != one {
		t.Fatalf("ProcessSignalSet allocates %v with 1 action and %v with 32: delivery allocates per action", one, many)
	}
}
