package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/trace"
)

// Activity lifecycle errors.
var (
	// ErrActivityInactive reports an operation on a completed (or
	// completing) activity.
	ErrActivityInactive = errors.New("core: activity is not active")
	// ErrActivitySuspended reports signalling or completing a suspended
	// activity.
	ErrActivitySuspended = errors.New("core: activity is suspended")
	// ErrChildrenActive reports completing an activity whose child
	// activities have not completed.
	ErrChildrenActive = errors.New("core: child activities still active")
	// ErrDuplicateSignalSet reports registering a second set with the same
	// name on one activity.
	ErrDuplicateSignalSet = errors.New("core: signal set already registered")
)

// ActivityState is an activity's lifecycle state.
type ActivityState int

// Activity lifecycle states: an activity is created, made to run, possibly
// suspended and resumed, and then completed (§3.1).
const (
	ActivityActive ActivityState = iota + 1
	ActivitySuspended
	ActivityCompleting
	ActivityCompleted
)

// String returns the state name.
func (s ActivityState) String() string {
	switch s {
	case ActivityActive:
		return "active"
	case ActivitySuspended:
		return "suspended"
	case ActivityCompleting:
		return "completing"
	case ActivityCompleted:
		return "completed"
	default:
		return fmt.Sprintf("ActivityState(%d)", int(s))
	}
}

// DefaultCompletionSet is the signal-set name driven by Complete when the
// activity has not chosen another with SetCompletionSet. It matches the
// paper's CompletionSignalSet convention (§4.2).
const DefaultCompletionSet = "completion"

// Activity is a unit of (distributed) work that may or may not be
// transactional (§3.1). Each activity has a coordinator through which
// Actions register interest in SignalSets; signals may be transmitted at
// arbitrary points in its lifetime, not just completion.
type Activity struct {
	svc      *Service
	id       ids.UID
	name     string
	parent   *Activity
	coord    *Coordinator
	timer    *time.Timer
	delivery DeliveryPolicy // per-activity override (WithActivityDelivery)

	mu            sync.Mutex
	state         ActivityState
	cs            CompletionStatus
	children      []*Activity
	sets          map[string]SignalSet     // nil until first written
	pgroups       map[string]PropertyGroup // nil until first written
	completionSet string
	outcome       Outcome
	hasOutcome    bool
}

// ID returns the globally unique activity identifier.
func (a *Activity) ID() ids.UID { return a.id }

// Name returns the human-readable name used in traces ("t1", "A", ...).
func (a *Activity) Name() string { return a.name }

// Parent returns the enclosing activity, nil for a root.
func (a *Activity) Parent() *Activity { return a.parent }

// Coordinator returns the activity's coordinator.
func (a *Activity) Coordinator() *Coordinator { return a.coord }

// State returns the lifecycle state.
func (a *Activity) State() ActivityState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// CompletionStatus returns the status the activity would complete with now.
func (a *Activity) CompletionStatus() CompletionStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cs
}

// SetCompletionStatus changes the prospective completion status. Once
// FailOnly, the status cannot change (§3.2.1).
func (a *Activity) SetCompletionStatus(cs CompletionStatus) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == ActivityCompleted || a.state == ActivityCompleting {
		return fmt.Errorf("%w: %s", ErrActivityInactive, a.name)
	}
	if a.cs == CompletionFailOnly && cs != CompletionFailOnly {
		return fmt.Errorf("%w: %s", ErrCompletionStatusFixed, a.name)
	}
	a.cs = cs
	a.svc.journal.statusSet(a.id, cs)
	return nil
}

// RegisterSignalSet associates a SignalSet with the activity. Each activity
// may use any number of sets over its lifetime, each registered once.
func (a *Activity) RegisterSignalSet(set SignalSet) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == ActivityCompleted {
		return fmt.Errorf("%w: %s", ErrActivityInactive, a.name)
	}
	if _, dup := a.sets[set.Name()]; dup {
		return fmt.Errorf("%w: %q on %s", ErrDuplicateSignalSet, set.Name(), a.name)
	}
	if a.sets == nil {
		a.sets = make(map[string]SignalSet)
	}
	a.sets[set.Name()] = set
	return nil
}

// SignalSet returns the registered set with the given name.
func (a *Activity) SignalSet(name string) (SignalSet, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.sets[name]
	return s, ok
}

// SetCompletionSet chooses which registered SignalSet Complete drives.
func (a *Activity) SetCompletionSet(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.completionSet = name
}

// AddAction registers action with the named SignalSet through the
// coordinator. The set does not need to be registered yet: per §3.2.3 the
// set of Signals cannot be known beforehand, so Actions register interest
// in a SignalSet by name. The state check and the registration share the
// lock Complete takes to enter Completing, so a registration either lands
// before the completion broadcast snapshots its targets or fails.
func (a *Activity) AddAction(setName string, action Action) (ActionID, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == ActivityCompleted || a.state == ActivityCompleting {
		return ActionID{}, fmt.Errorf("%w: %s", ErrActivityInactive, a.name)
	}
	return a.coord.AddAction(setName, action), nil
}

// AddNamedAction is AddAction with an explicit trace label.
func (a *Activity) AddNamedAction(setName, label string, action Action) (ActionID, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == ActivityCompleted || a.state == ActivityCompleting {
		return ActionID{}, fmt.Errorf("%w: %s", ErrActivityInactive, a.name)
	}
	return a.coord.AddNamedAction(setName, label, action), nil
}

// RemoveAction cancels a registration.
func (a *Activity) RemoveAction(setName string, id ActionID) bool {
	return a.coord.RemoveAction(setName, id)
}

// Suspend pauses the activity; a suspended activity rejects signalling,
// completion and child creation until resumed (§3.1: activities can run
// over long periods and be suspended and resumed).
func (a *Activity) Suspend() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state != ActivityActive {
		return fmt.Errorf("%w: cannot suspend %s in state %s", ErrActivityInactive, a.name, a.state)
	}
	a.state = ActivitySuspended
	return nil
}

// Resume reactivates a suspended activity.
func (a *Activity) Resume() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state != ActivitySuspended {
		return fmt.Errorf("%w: cannot resume %s in state %s", ErrActivityInactive, a.name, a.state)
	}
	a.state = ActivityActive
	return nil
}

// BeginChild starts a nested activity. Property groups are derived
// according to each group's nesting behaviour.
func (a *Activity) BeginChild(name string, opts ...BeginOption) (*Activity, error) {
	a.mu.Lock()
	if a.state != ActivityActive {
		st := a.state
		a.mu.Unlock()
		return nil, fmt.Errorf("%w: cannot nest under %s in state %s", ErrActivityInactive, a.name, st)
	}
	a.mu.Unlock()

	child := a.svc.newActivity(name, a, opts...)

	a.mu.Lock()
	if a.state != ActivityActive {
		st := a.state
		a.mu.Unlock()
		// The parent changed state while the child was being built (e.g. a
		// concurrent Suspend or Complete): unwind the stillborn child so it
		// does not leak in the live registry.
		if child.timer != nil {
			child.timer.Stop()
		}
		a.svc.forget(child)
		return nil, fmt.Errorf("%w: cannot nest under %s in state %s", ErrActivityInactive, a.name, st)
	}
	a.children = append(a.children, child)
	// Derive property groups into the child.
	if len(a.pgroups) > 0 {
		child.pgroups = make(map[string]PropertyGroup, len(a.pgroups))
	}
	for name, pg := range a.pgroups {
		child.pgroups[name] = deriveChild(pg)
	}
	a.mu.Unlock()

	a.svc.journal.begun(child.id, a.id, name)
	a.svc.rec.Record(trace.KindBegin, name, "", "", "child of "+a.name)
	return child, nil
}

// Children returns a snapshot of the child activities.
func (a *Activity) Children() []*Activity {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*Activity(nil), a.children...)
}

// activeChildren lists children not yet completed.
func (a *Activity) activeChildren() []*Activity {
	var out []*Activity
	for _, c := range a.Children() {
		if c.State() != ActivityCompleted {
			out = append(out, c)
		}
	}
	return out
}

// Signal drives the named registered SignalSet immediately — the paper's
// "Signals may be communicated at arbitrary points during the lifetime of
// an activity and not just when it terminates" (§3.1). The set is told the
// activity's current completion status before the protocol runs.
func (a *Activity) Signal(ctx context.Context, setName string) (Outcome, error) {
	a.mu.Lock()
	switch a.state {
	case ActivityActive:
	case ActivitySuspended:
		a.mu.Unlock()
		return Outcome{}, fmt.Errorf("%w: %s", ErrActivitySuspended, a.name)
	default:
		st := a.state
		a.mu.Unlock()
		return Outcome{}, fmt.Errorf("%w: %s in state %s", ErrActivityInactive, a.name, st)
	}
	set, ok := a.sets[setName]
	cs := a.cs
	a.mu.Unlock()
	if !ok {
		return Outcome{}, fmt.Errorf("%w: %q on %s", ErrUnknownSignalSet, setName, a.name)
	}
	set.SetCompletionStatus(cs)
	return a.coord.ProcessSignalSet(ctx, set)
}

// Complete finishes the activity with its current completion status,
// driving the completion SignalSet (if one is registered) and recording
// the collated outcome. All child activities must have completed.
func (a *Activity) Complete(ctx context.Context) (Outcome, error) {
	if kids := a.activeChildren(); len(kids) > 0 {
		names := make([]string, 0, len(kids))
		for _, k := range kids {
			names = append(names, k.name)
		}
		return Outcome{}, fmt.Errorf("%w: %s has %v", ErrChildrenActive, a.name, names)
	}

	a.mu.Lock()
	switch a.state {
	case ActivityActive:
	case ActivitySuspended:
		a.mu.Unlock()
		return Outcome{}, fmt.Errorf("%w: %s", ErrActivitySuspended, a.name)
	default:
		st := a.state
		a.mu.Unlock()
		return Outcome{}, fmt.Errorf("%w: %s in state %s", ErrActivityInactive, a.name, st)
	}
	a.state = ActivityCompleting
	cs := a.cs
	setName := a.completionSet
	if setName == "" {
		setName = DefaultCompletionSet
	}
	set, hasSet := a.sets[setName]
	a.mu.Unlock()

	if a.timer != nil {
		a.timer.Stop()
	}

	outcome := Outcome{Name: defaultOutcomeName(cs)}
	var err error
	if hasSet {
		set.SetCompletionStatus(cs)
		outcome, err = a.coord.ProcessSignalSet(ctx, set)
	}

	a.mu.Lock()
	a.state = ActivityCompleted
	a.outcome = outcome
	a.hasOutcome = err == nil
	a.mu.Unlock()

	a.svc.journal.completed(a.id, cs, outcome.Name)
	a.svc.rec.Record(trace.KindComplete, a.name, "", outcome.Name, cs.String())
	a.svc.forget(a)
	if err != nil {
		return Outcome{}, fmt.Errorf("core: complete %s: %w", a.name, err)
	}
	return outcome, nil
}

// CompleteWithStatus sets the completion status, then completes.
func (a *Activity) CompleteWithStatus(ctx context.Context, cs CompletionStatus) (Outcome, error) {
	if err := a.SetCompletionStatus(cs); err != nil {
		return Outcome{}, err
	}
	return a.Complete(ctx)
}

// Outcome returns the recorded completion outcome once completed.
func (a *Activity) Outcome() (Outcome, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.outcome, a.hasOutcome
}

func defaultOutcomeName(cs CompletionStatus) string {
	if cs == CompletionSuccess {
		return "success"
	}
	return "failure"
}
