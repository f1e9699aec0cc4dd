package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/trace"
)

// ActionID identifies a registration with a coordinator, so an action can
// later be removed.
type ActionID = ids.UID

// ErrUnknownSignalSet reports driving or registering with a set name the
// activity does not know.
var ErrUnknownSignalSet = errors.New("core: unknown signal set")

// RetryPolicy controls at-least-once signal delivery (§3.4): a failed
// ProcessSignal is retried up to Attempts times with Backoff between tries.
// Actions must therefore be idempotent (or wrapped with Idempotent).
type RetryPolicy struct {
	// Attempts bounds deliveries of one signal to one action.
	Attempts int
	// Backoff is the pause between attempts.
	Backoff time.Duration
}

// registration pairs an Action with its identity and trace label. An
// unnamed registration keeps only its AddAction number and formats its
// "action-N" label on demand, so untraced delivery never builds it.
type registration struct {
	id     ActionID
	seq    int64  // AddAction number, 0 for a named registration
	label  string // AddNamedAction label
	action Action
}

// name returns the registration's trace label.
func (r registration) name() string {
	if r.seq == 0 {
		return r.label
	}
	return "action-" + strconv.FormatInt(r.seq, 10)
}

// regList is one set name's registrations, in registration order.
// Removal copies into a new array and appends write only past the current
// length, so no element a broadcast's snapshot can see is ever rewritten.
type regList struct {
	setName string
	regs    []registration
}

// Coordinator is the activity coordinator of fig. 5: Actions register
// interest in SignalSets by name; when the activity transmits a SignalSet,
// the coordinator pulls each Signal from the set, broadcasts it to the
// registered Actions in registration order, and feeds every response back
// into the set. One mutex guards its registrations: each broadcast takes
// a copy-free snapshot, so actions may register and deregister while a
// signal is in flight without changing who receives it.
type Coordinator struct {
	owner    string // activity name, for traces
	gen      *ids.Generator
	rec      *trace.Recorder
	retry    RetryPolicy
	delivery DeliveryPolicy
	counters *deliveryCounters // service-wide speculative accounting, may be nil
	seq      atomic.Int64      // numbers unnamed registrations

	// mu guards the registration lists and the per-set drivers: an
	// activity drives one or two set names, so linear search beats a map.
	mu      sync.Mutex
	regs    []regList
	drivers []*setDriver
}

func newCoordinator(owner string, gen *ids.Generator, rec *trace.Recorder, retry RetryPolicy, delivery DeliveryPolicy, counters *deliveryCounters) *Coordinator {
	if retry.Attempts < 1 {
		retry.Attempts = 1
	}
	return &Coordinator{
		owner:    owner,
		gen:      gen,
		rec:      rec,
		retry:    retry,
		delivery: delivery,
		counters: counters,
	}
}

// AddAction registers action with the named SignalSet. Actions register
// interest in SignalSets, not individual Signals (§3.2.3): they receive
// every signal the set generates.
func (c *Coordinator) AddAction(setName string, action Action) ActionID {
	return c.add(setName, registration{seq: c.seq.Add(1), action: action})
}

// AddNamedAction registers action under an explicit trace label.
func (c *Coordinator) AddNamedAction(setName, label string, action Action) ActionID {
	return c.add(setName, registration{label: label, action: action})
}

// add assigns reg an id and appends it to setName's list.
func (c *Coordinator) add(setName string, reg registration) ActionID {
	reg.id = c.gen.New()
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.list(setName)
	if l == nil {
		// Room for a typical participant list before the first regrowth.
		c.regs = append(c.regs, regList{setName: setName, regs: make([]registration, 0, 4)})
		l = &c.regs[len(c.regs)-1]
	}
	l.regs = append(l.regs, reg)
	return reg.id
}

// list returns setName's registrations, nil if it has none. c.mu is held.
func (c *Coordinator) list(setName string) *regList {
	for i := range c.regs {
		if c.regs[i].setName == setName {
			return &c.regs[i]
		}
	}
	return nil
}

// RemoveAction removes a registration, reporting whether it existed.
func (c *Coordinator) RemoveAction(setName string, id ActionID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.list(setName)
	for i := 0; l != nil && i < len(l.regs); i++ {
		if l.regs[i].id == id {
			// Copy on write: a running broadcast may hold the old array.
			kept := make([]registration, 0, len(l.regs)-1)
			l.regs = append(append(kept, l.regs[:i]...), l.regs[i+1:]...)
			return true
		}
	}
	return false
}

// ActionCount returns the number of actions registered with setName.
func (c *Coordinator) ActionCount(setName string) int {
	return len(c.actions(setName))
}

// actions snapshots the registrations for a set without copying: the
// slice is capped at its length, below which the list is never written.
func (c *Coordinator) actions(setName string) []registration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l := c.list(setName); l != nil {
		return l.regs[:len(l.regs):len(l.regs)]
	}
	return nil
}

// driverFor returns the fig. 7 state machine for a set instance, creating
// it on first use (create=false reports nil instead). A set that reached
// End stays ended forever.
func (c *Coordinator) driverFor(set SignalSet, create bool) *setDriver {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.drivers {
		if d.set == set {
			return d
		}
	}
	if !create {
		return nil
	}
	d := newSetDriver(set)
	c.drivers = append(c.drivers, d)
	return d
}

// SetState reports the fig. 7 state of a set instance under this
// coordinator (Waiting if it has never been driven).
func (c *Coordinator) SetState(set SignalSet) SetState {
	if d := c.driverFor(set, false); d != nil {
		return d.State()
	}
	return StateWaiting
}

// ProcessSignalSet drives the full protocol of figs. 5 and 8: pull a
// signal, broadcast it to every action registered with the set's name,
// feed responses back, repeat until the set ends, then collate the final
// outcome with GetOutcome.
//
// Each broadcast is delivered per the resolved DeliveryPolicy — the set's
// own (DeliveryPolicyProvider), else the Service-wide default, else serial.
// Whatever the policy, responses reach the set in registration order, so
// collation, advance short-circuiting and the recorded trace are identical
// across policies.
func (c *Coordinator) ProcessSignalSet(ctx context.Context, set SignalSet) (Outcome, error) {
	driver := c.driverFor(set, true)
	setName := set.Name()
	policy := c.policyFor(set)
	for {
		sig, last, err := driver.getSignal()
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			return Outcome{}, fmt.Errorf("core: get_signal on %q: %w", setName, err)
		}
		c.rec.Record(trace.KindGetSignal, c.owner, setName, sig.Name, "")

		regs := c.actions(setName)
		var (
			advance bool
			berr    error
		)
		switch {
		case policy.Mode == DeliverTree && len(regs) > 1:
			advance, berr = c.broadcastTree(ctx, driver, regs, sig, policy)
		case policy.Mode == DeliverParallel && len(regs) > 1:
			advance, berr = c.broadcastParallel(ctx, driver, regs, sig, policy)
		default:
			advance, berr = c.broadcastSerial(ctx, driver, regs, sig)
		}
		if berr != nil {
			return Outcome{}, fmt.Errorf("core: set_response on %q: %w", setName, berr)
		}
		if last && !advance {
			driver.end()
			break
		}
	}
	out, err := driver.getOutcome()
	if err != nil {
		return Outcome{}, fmt.Errorf("core: get_outcome on %q: %w", setName, err)
	}
	c.rec.Record(trace.KindGetOutcome, c.owner, setName, out.Name, "")
	return out, nil
}
