package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/trace"
)

// DeliveryMode selects how a coordinator broadcasts one Signal to the
// Actions registered with a SignalSet.
type DeliveryMode int

// Delivery modes.
const (
	// DeliverSerial transmits to one action at a time in registration
	// order, waiting for each response before the next transmit — the
	// fig. 5 exchange as literally drawn. This is the default.
	DeliverSerial DeliveryMode = iota + 1
	// DeliverParallel transmits to all registered actions concurrently
	// through a bounded worker pool. Responses are fed back to the
	// SignalSet strictly in registration order, so collation — and the
	// recorded trace — is identical to serial delivery. Delivery is
	// speculative: when an early response advances the set, actions later
	// in registration order may already have received the signal (their
	// responses are discarded and in-flight stragglers are cancelled via
	// their context). Sets that rely on advance to *prevent* later
	// deliveries must stay serial.
	DeliverParallel
	// DeliverTree relays the broadcast down a branching-factor tree of
	// relay-capable actions (SubtreeDeliverer): the coordinator contacts
	// only the subtree roots, each relay delivers to its own span and
	// forwards to child relays, and outcomes aggregate back up with their
	// registration identity intact. Responses still reach the SignalSet in
	// registration order, so collation and the recorded trace are
	// byte-identical to serial delivery. Tree delivery is speculative like
	// parallel delivery, and additionally at least once per subtree: a
	// relay that dies mid-round is re-adopted by redelivering its span
	// directly, so actions must be idempotent. Actions that cannot relay
	// are delivered directly through the worker pool.
	DeliverTree
)

// String returns the mode name.
func (m DeliveryMode) String() string {
	switch m {
	case DeliverSerial:
		return "serial"
	case DeliverParallel:
		return "parallel"
	case DeliverTree:
		return "tree"
	default:
		return fmt.Sprintf("DeliveryMode(%d)", int(m))
	}
}

// DeliveryPolicy configures how broadcasts are delivered. The zero value
// means "no preference": a set with a zero policy inherits the Service's
// policy, and a Service with a zero policy delivers serially.
type DeliveryPolicy struct {
	// Mode selects serial or parallel fan-out.
	Mode DeliveryMode
	// MaxWorkers bounds the number of concurrent deliveries in parallel
	// mode. Zero or negative selects max(16, 4×GOMAXPROCS), capped at the
	// fanout.
	MaxWorkers int
	// Branching is the relay-tree fan-out (children per node) in tree
	// mode. Zero or negative selects DefaultBranching.
	Branching int
	// Planner builds the relay tree in tree mode. Nil selects the
	// deterministic GreedyNearestPlanner.
	Planner TreePlanner
}

// Parallel is shorthand for a parallel policy with the default worker
// bound.
func Parallel() DeliveryPolicy { return DeliveryPolicy{Mode: DeliverParallel} }

// Tree is shorthand for a relay-tree policy with the given branching
// factor (<= 0 selects DefaultBranching) and the default planner.
func Tree(branching int) DeliveryPolicy {
	return DeliveryPolicy{Mode: DeliverTree, Branching: branching}
}

// workers resolves the worker-pool size for one broadcast of n actions.
func (p DeliveryPolicy) workers(n int) int {
	w := p.MaxWorkers
	if w <= 0 {
		w = 4 * runtime.GOMAXPROCS(0)
		if w < 16 {
			w = 16
		}
	}
	if w > n {
		w = n
	}
	return w
}

// deliveryCounters aggregates speculative parallel-delivery accounting
// for one Service: every coordinator feeds it, DeliveryStats snapshots it.
type deliveryCounters struct {
	discarded atomic.Uint64
	skipped   atomic.Uint64
	cancelled atomic.Uint64
}

// snapshot returns the counters as a DeliveryStats value.
func (c *deliveryCounters) snapshot() DeliveryStats {
	return DeliveryStats{
		DiscardedResponses:  c.discarded.Load(),
		SkippedDeliveries:   c.skipped.Load(),
		CancelledDeliveries: c.cancelled.Load(),
	}
}

// DeliveryStats is a snapshot of a Service's speculative-delivery
// accounting (Service.DeliveryStats): what parallel fan-out delivered —or
// started to deliver— that an advance then discarded. Serial delivery
// never contributes: it stops transmitting the moment a response advances
// the set.
type DeliveryStats struct {
	// DiscardedResponses counts deliveries that ran to completion — a
	// response, or a final failure after exhausting retries — whose
	// results were discarded because an earlier response in registration
	// order advanced the set. Either way the action consumed real work
	// that the advance threw away, which is what this gauge is for.
	DiscardedResponses uint64
	// SkippedDeliveries counts deliveries short-circuited before their
	// first transmit by an advance: queued work that never ran.
	SkippedDeliveries uint64
	// CancelledDeliveries counts deliveries cancelled mid-flight (between
	// retry attempts) by an advance.
	CancelledDeliveries uint64
}

// Total returns the total number of deliveries affected by advance
// short-circuits.
func (s DeliveryStats) Total() uint64 {
	return s.DiscardedResponses + s.SkippedDeliveries + s.CancelledDeliveries
}

// countSpeculative classifies one parallel delivery discarded by an
// advance into the service-wide counters.
func (c *Coordinator) countSpeculative(r attemptResult) {
	if c.counters == nil {
		return
	}
	switch {
	case r.skipped:
		c.counters.skipped.Add(1)
	case r.cancelled:
		c.counters.cancelled.Add(1)
	default:
		c.counters.discarded.Add(1)
	}
}

// DeliveryPolicyProvider is implemented by SignalSets that choose their own
// delivery policy, overriding the Service-wide default for every broadcast
// of that set. BaseSet provides the plumbing: any set embedding it can opt
// in with SetDelivery.
type DeliveryPolicyProvider interface {
	// Delivery returns the set's chosen policy (zero = no preference).
	Delivery() DeliveryPolicy
}

// policyFor resolves the delivery policy for one set: the set's own choice
// when it makes one, otherwise the coordinator's (Service-wide) default,
// otherwise serial.
func (c *Coordinator) policyFor(set SignalSet) DeliveryPolicy {
	if p, ok := set.(DeliveryPolicyProvider); ok {
		if sp := p.Delivery(); sp.Mode != 0 {
			return sp
		}
	}
	if c.delivery.Mode != 0 {
		return c.delivery
	}
	return DeliveryPolicy{Mode: DeliverSerial}
}

// broadcastSerial delivers sig to each registration in order, recording
// its trace events live and feeding every response back immediately; an
// advance stops the broadcast.
func (c *Coordinator) broadcastSerial(ctx context.Context, driver *setDriver, regs []registration, sig Signal) (bool, error) {
	for _, reg := range regs {
		r := c.runAttempts(ctx, reg, sig, true)
		c.recordResponse(reg, sig, r)
		adv, serr := driver.setResponse(r.outcome, r.err)
		if serr != nil {
			return false, serr
		}
		if adv {
			return true, nil
		}
	}
	return false, nil
}

// attemptResult is the outcome of one action's at-least-once retry loop.
type attemptResult struct {
	outcome  Outcome
	err      error
	attempts int
	// cancelled marks a delivery abandoned mid-backoff (context died):
	// no response event is recorded for it, in serial or parallel mode.
	cancelled bool
	// skipped marks a parallel delivery short-circuited before its first
	// transmit; it is neither recorded nor fed to the set.
	skipped bool
}

// runAttempts is the single at-least-once retry loop behind every
// delivery mode. With live set (the serial path) it records each transmit
// as it happens; the concurrent paths pass false and replay the events at
// collation time, so there is exactly one encoding of the retry-and-trace
// contract.
func (c *Coordinator) runAttempts(ctx context.Context, reg registration, sig Signal, live bool) attemptResult {
	var r attemptResult
	for attempt := 1; attempt <= c.retry.Attempts; attempt++ {
		if live && c.rec != nil {
			c.rec.Record(trace.KindTransmit, c.owner, reg.name(), sig.Name, transmitDetail(attempt))
		}
		r.attempts = attempt
		r.outcome, r.err = reg.action.ProcessSignal(ctx, sig)
		if r.err == nil {
			return r
		}
		if c.retry.Backoff > 0 && attempt < c.retry.Attempts {
			select {
			case <-ctx.Done():
				return attemptResult{
					err:       fmt.Errorf("core: delivery cancelled: %w", ctx.Err()),
					attempts:  attempt,
					cancelled: true,
				}
			case <-time.After(c.retry.Backoff):
			}
		}
	}
	r.outcome = Outcome{}
	return r
}

// transmitDetail is the trace annotation for the n-th transmit attempt.
func transmitDetail(attempt int) string {
	if attempt > 1 {
		return fmt.Sprintf("retry %d", attempt-1)
	}
	return ""
}

// recordResponse records the response event for a finished delivery:
// success or final failure, but nothing for a delivery cancelled
// mid-backoff — the same shape in serial and parallel mode.
func (c *Coordinator) recordResponse(reg registration, sig Signal, r attemptResult) {
	switch {
	case c.rec == nil, r.cancelled:
	case r.err == nil:
		c.rec.Record(trace.KindResponse, reg.name(), sig.SetName, r.outcome.Name, "")
	default:
		c.rec.Record(trace.KindResponse, reg.name(), sig.SetName, "", fmt.Sprintf("error: %v", r.err))
	}
}

// broadcastParallel delivers sig to every registration concurrently through
// a bounded worker pool, then feeds the responses to the driver in
// registration order. When a response advances the set (or feeding fails)
// the remaining responses are discarded — exactly the responses serial
// delivery would never have produced — and stragglers are cancelled through
// their context. Trace events are recorded at collation time, so the
// recorded sequence is byte-identical to serial delivery's.
func (c *Coordinator) broadcastParallel(ctx context.Context, driver *setDriver, regs []registration, sig Signal, policy DeliveryPolicy) (bool, error) {
	n := len(regs)
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// shortCircuit distinguishes our own advance-cancellation from a caller
	// cancelling ctx: serial delivery still invokes actions under a
	// cancelled parent context, so only an advance may skip deliveries.
	var shortCircuit atomic.Bool

	results := make([]attemptResult, n)
	ready := make([]chan struct{}, n)
	jobs := make(chan int, n)
	for i := range ready {
		ready[i] = make(chan struct{})
		jobs <- i
	}
	close(jobs)

	var wg sync.WaitGroup
	for w := policy.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if shortCircuit.Load() {
					results[idx].skipped = true
					close(ready[idx])
					continue
				}
				results[idx] = c.runAttempts(dctx, regs[idx], sig, false)
				close(ready[idx])
			}
		}()
	}
	// All workers drain their remaining (skipped) jobs before we return, so
	// no goroutine outlives the broadcast.
	defer wg.Wait()

	advance := false
	var feedErr error
	for i := 0; i < n; i++ {
		<-ready[i]
		if advance || feedErr != nil {
			// Discard speculative responses past the short-circuit,
			// counting the ones an advance (not a feed error) threw away.
			if advance {
				c.countSpeculative(results[i])
			}
			continue
		}
		r := results[i]
		if r.skipped {
			continue
		}
		c.replayTrace(regs[i], sig, r)
		adv, serr := driver.setResponse(r.outcome, r.err)
		if serr != nil {
			feedErr = serr
			shortCircuit.Store(true)
			cancel()
			continue
		}
		if adv {
			advance = true
			shortCircuit.Store(true)
			cancel()
		}
	}
	return advance, feedErr
}

// replayTrace records the transmit/response events for one parallel
// delivery in the same shape the serial path records them live.
func (c *Coordinator) replayTrace(reg registration, sig Signal, r attemptResult) {
	if c.rec == nil {
		return
	}
	for attempt := 1; attempt <= r.attempts; attempt++ {
		c.rec.Record(trace.KindTransmit, c.owner, reg.name(), sig.Name, transmitDetail(attempt))
	}
	c.recordResponse(reg, sig, r)
}
