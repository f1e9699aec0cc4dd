package core

import (
	"errors"
	"fmt"
	"sync"
)

// SignalSet errors.
var (
	// ErrSignalSetActive is raised by GetOutcome before the set reaches the
	// End state (the IDL's SignalSetActive exception).
	ErrSignalSetActive = errors.New("core: signal set is still active")
	// ErrSignalSetInactive is raised by SetResponse after the set reached
	// the End state (the IDL's SignalSetInactive exception).
	ErrSignalSetInactive = errors.New("core: signal set has ended")
	// ErrExhausted is returned by GetSignal when the set has no signal to
	// send, moving it straight to the End state (fig. 7's Waiting→End
	// transition).
	ErrExhausted = errors.New("core: signal set has no further signals")
	// ErrCompletionStatusFixed reports an attempt to change a FailOnly
	// completion status.
	ErrCompletionStatusFixed = errors.New("core: completion status is fail-only")
)

// SignalSet generates the Signals a coordinator distributes and collates
// the responses, per the paper's IDL:
//
//	interface SignalSet {
//	    readonly attribute string signal_set_name;
//	    Signal get_signal (inout boolean lastSignal);
//	    Outcome get_outcome () raises(SignalSetActive);
//	    boolean set_response (in Outcome response, out boolean nextSignal)
//	                          raises (SignalSetInactive);
//	    void set_completion_status (in CompletionStatus cs);
//	    CompletionStatus get_completion_status ();
//	};
//
// The coordinator drives the fig. 7 state machine: it calls GetSignal,
// broadcasts the returned signal to every registered Action, feeds each
// action's outcome back with SetResponse, and asks for the next signal when
// the broadcast finishes or the set requests early advance. GetOutcome is
// valid only once the set has ended.
type SignalSet interface {
	// Name returns the signal_set_name.
	Name() string
	// GetSignal returns the next signal to broadcast. last reports whether
	// this is the final signal (the set ends after its broadcast, unless an
	// early advance produces another). ErrExhausted means the set has
	// nothing (more) to send.
	GetSignal() (sig Signal, last bool, err error)
	// SetResponse feeds one action's outcome (or delivery error) back.
	// advance=true asks the coordinator to stop the current broadcast and
	// request a new signal immediately.
	SetResponse(resp Outcome, deliveryErr error) (advance bool, err error)
	// GetOutcome collates the protocol result; only valid after the set has
	// ended (otherwise ErrSignalSetActive).
	GetOutcome() (Outcome, error)
	// SetCompletionStatus tells the set which way the activity is
	// completing, so it can choose its signals accordingly.
	SetCompletionStatus(cs CompletionStatus)
	// CompletionStatus returns the last status given to the set.
	CompletionStatus() CompletionStatus
}

// SetState is a SignalSet's protocol state, per fig. 7.
type SetState int

// SignalSet states (fig. 7).
const (
	// StateWaiting: created, not yet asked for a signal.
	StateWaiting SetState = iota + 1
	// StateGetSignal: actively producing signals.
	StateGetSignal
	// StateEnd: finished; cannot produce signals and will not be reused.
	StateEnd
)

// String returns the fig. 7 state name.
func (s SetState) String() string {
	switch s {
	case StateWaiting:
		return "Waiting"
	case StateGetSignal:
		return "GetSignal"
	case StateEnd:
		return "End"
	default:
		return fmt.Sprintf("SetState(%d)", int(s))
	}
}

// setDriver wraps a SignalSet with the fig. 7 state machine, enforcing
// that a set is never reused after End and that GetOutcome only runs in
// End.
type setDriver struct {
	set SignalSet

	mu    sync.Mutex
	state SetState
}

func newSetDriver(set SignalSet) *setDriver {
	return &setDriver{set: set, state: StateWaiting}
}

func (d *setDriver) State() SetState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// getSignal transitions Waiting/GetSignal → GetSignal, or → End when the
// set is exhausted.
func (d *setDriver) getSignal() (Signal, bool, error) {
	if d.State() == StateEnd {
		return Signal{}, false, fmt.Errorf("%w: get_signal after End", ErrSignalSetInactive)
	}
	sig, last, err := d.set.GetSignal()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil { // ErrExhausted included
		d.state = StateEnd
		return Signal{}, false, err
	}
	d.state = StateGetSignal
	return sig, last, nil
}

func (d *setDriver) setResponse(resp Outcome, deliveryErr error) (bool, error) {
	if st := d.State(); st != StateGetSignal {
		return false, fmt.Errorf("%w: set_response in state %s", ErrSignalSetInactive, st)
	}
	return d.set.SetResponse(resp, deliveryErr)
}

// end transitions to End after the last signal's broadcast.
func (d *setDriver) end() {
	d.mu.Lock()
	d.state = StateEnd
	d.mu.Unlock()
}

func (d *setDriver) getOutcome() (Outcome, error) {
	if st := d.State(); st != StateEnd {
		return Outcome{}, fmt.Errorf("%w: get_outcome in state %s", ErrSignalSetActive, st)
	}
	return d.set.GetOutcome()
}

// BaseSet provides the completion-status bookkeeping every SignalSet
// needs; embed it (unexported-field style) via composition in model
// implementations. It also carries the set's delivery preference: a set
// opted in with SetDelivery overrides the Service-wide policy for its own
// broadcasts (it implements DeliveryPolicyProvider).
type BaseSet struct {
	name string

	mu       sync.Mutex
	cs       CompletionStatus
	delivery DeliveryPolicy
}

// NewBaseSet returns a BaseSet with the given name and a Success status.
func NewBaseSet(name string) BaseSet {
	return BaseSet{name: name, cs: CompletionSuccess}
}

// Name implements SignalSet.
func (b *BaseSet) Name() string { return b.name }

// SetCompletionStatus implements SignalSet.
func (b *BaseSet) SetCompletionStatus(cs CompletionStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cs == CompletionFailOnly {
		return // fail-only is sticky, per §3.2.1
	}
	b.cs = cs
}

// CompletionStatus implements SignalSet.
func (b *BaseSet) CompletionStatus() CompletionStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cs
}

// SetDelivery opts every broadcast of this set into the given delivery
// policy, overriding the Service-wide default. The zero policy restores
// "no preference" (inherit the Service's).
func (b *BaseSet) SetDelivery(p DeliveryPolicy) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.delivery = p
}

// Delivery implements DeliveryPolicyProvider.
func (b *BaseSet) Delivery() DeliveryPolicy {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.delivery
}

// SequenceSet is a ready-made SignalSet that sends a fixed sequence of
// signals, one broadcast each, and collates a fixed outcome. It is the
// simplest useful SignalSet and the building block of several tests and
// examples.
type SequenceSet struct {
	BaseSet

	mu        sync.Mutex
	signals   []Signal
	idx       int
	responses []Outcome
	outcome   Outcome
	// Collate, when non-nil, computes the final outcome from all responses.
	collate func(responses []Outcome) Outcome
}

var _ SignalSet = (*SequenceSet)(nil)

// NewSequenceSet returns a SignalSet named name that broadcasts the given
// signal names in order. The final outcome is "completed" unless a collate
// function is set with Collate.
func NewSequenceSet(name string, signalNames ...string) *SequenceSet {
	s := &SequenceSet{BaseSet: NewBaseSet(name)}
	for _, sn := range signalNames {
		s.signals = append(s.signals, Signal{Name: sn, SetName: name})
	}
	s.outcome = Outcome{Name: "completed"}
	return s
}

// Collate sets the response-collation function and returns the set.
func (s *SequenceSet) Collate(fn func(responses []Outcome) Outcome) *SequenceSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.collate = fn
	return s
}

// GetSignal implements SignalSet.
func (s *SequenceSet) GetSignal() (Signal, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx >= len(s.signals) {
		return Signal{}, false, ErrExhausted
	}
	sig := s.signals[s.idx]
	s.idx++
	return sig, s.idx == len(s.signals), nil
}

// SetResponse implements SignalSet.
func (s *SequenceSet) SetResponse(resp Outcome, deliveryErr error) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if deliveryErr != nil {
		resp = Outcome{Name: "delivery-error", Data: deliveryErr.Error()}
	}
	s.responses = append(s.responses, resp)
	return false, nil
}

// GetOutcome implements SignalSet.
func (s *SequenceSet) GetOutcome() (Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.collate != nil {
		return s.collate(append([]Outcome(nil), s.responses...)), nil
	}
	return s.outcome, nil
}

// Responses returns a copy of all responses received so far.
func (s *SequenceSet) Responses() []Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Outcome(nil), s.responses...)
}
