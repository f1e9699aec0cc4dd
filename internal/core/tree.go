package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBranching is the relay-tree fan-out used when a tree
// DeliveryPolicy does not set one.
const DefaultBranching = 4

// RelayInfo is the network identity a relay-capable Action reports for
// tree planning: where it lives and how far away it looks.
type RelayInfo struct {
	// Node is the action's primary endpoint ("tcp:host:port" or
	// "inproc:id"). Actions on the same node cluster into the same
	// subtrees.
	Node string
	// RTT is the measured round-trip estimate to the node, zero when
	// unknown. The default planner places low-RTT nodes near the root.
	RTT time.Duration
}

// TreeMember is one participant handed to a TreePlanner: its position in
// registration order (which collation preserves), its trace label, its
// relay identity, and the registered Action itself so deliverers can
// resolve references and the coordinator can redeliver directly.
type TreeMember struct {
	// Index is the participant's position in registration order.
	Index int
	// Label is the registration's trace label.
	Label string
	// Node is the participant's primary endpoint (RelayInfo.Node).
	Node string
	// RTT is the measured round-trip estimate (RelayInfo.RTT).
	RTT time.Duration
	// Action is the registered action.
	Action Action
}

// TreeNode is one vertex of a relay tree: the member that relays for the
// subtree, and the child subtrees it forwards to.
type TreeNode struct {
	// Member is the participant acting as this subtree's relay.
	Member TreeMember
	// Children are the subtrees this node forwards to.
	Children []*TreeNode
}

// Span returns the number of members in the subtree rooted at n.
func (n *TreeNode) Span() int {
	total := 1
	for _, c := range n.Children {
		total += c.Span()
	}
	return total
}

// indexes appends the registration indexes of every member in the subtree
// to dst, in tree (preorder) order.
func (n *TreeNode) indexes(dst []int) []int {
	dst = append(dst, n.Member.Index)
	for _, c := range n.Children {
		dst = c.indexes(dst)
	}
	return dst
}

// TreePlan is a forest of relay subtrees: the coordinator contacts each
// root directly and the roots fan the signal out below.
type TreePlan struct {
	// Roots are the subtrees the coordinator contacts directly.
	Roots []*TreeNode
}

// TreePlanner builds the relay tree for one broadcast. Implementations
// must be deterministic for a given member list: the differential harness
// (and reconfiguration after a relay death) depends on replanning the same
// members yielding the same tree. Smarter planners (simulated annealing
// over a full latency matrix, topology-aware grouping) plug in through
// DeliveryPolicy.Planner.
type TreePlanner interface {
	// Plan partitions members into a forest with at most branching
	// children per node.
	Plan(members []TreeMember, branching int) TreePlan
}

// GreedyNearestPlanner is the default TreePlanner: a deterministic greedy
// k-nearest construction over the members' measured RTTs. Members are
// ordered by (RTT class, Node, Index) — no randomness, so the same inputs
// always produce the same tree — and laid out as a k-ary heap over that
// order: the k lowest-latency members become roots, and each node adopts
// the k nearest (in that order) members still unplaced. Low-RTT relays
// therefore sit near the coordinator, where they are traversed on every
// path, and members of the same latency class on the same node (usually:
// the same site) cluster into the same subtree.
//
// RTTs are quantized into doubling latency classes (≤500µs, ≤1ms, ≤2ms, …)
// rather than compared raw: live EWMA estimates jitter between rounds, and
// a plan that reshuffled on every µs of noise would defeat the relay plant
// cache that makes repeated rounds cheap. Within a class the node string
// breaks ties, so co-located members stay adjacent.
type GreedyNearestPlanner struct{}

// rttClass quantizes an RTT estimate into a doubling bucket: 0 for ≤500µs
// (or unknown), then one class per doubling. Stable under measurement
// noise, still separating near from far.
func rttClass(rtt time.Duration) int {
	class := 0
	for bound := 500 * time.Microsecond; rtt > bound; bound *= 2 {
		class++
	}
	return class
}

// Plan implements TreePlanner.
func (GreedyNearestPlanner) Plan(members []TreeMember, branching int) TreePlan {
	if len(members) == 0 {
		return TreePlan{}
	}
	if branching <= 0 {
		branching = DefaultBranching
	}
	ordered := append([]TreeMember(nil), members...)
	sort.SliceStable(ordered, func(i, j int) bool {
		ci, cj := rttClass(ordered[i].RTT), rttClass(ordered[j].RTT)
		if ci != cj {
			return ci < cj
		}
		if ordered[i].Node != ordered[j].Node {
			return ordered[i].Node < ordered[j].Node
		}
		return ordered[i].Index < ordered[j].Index
	})
	nodes := make([]*TreeNode, len(ordered))
	for i, m := range ordered {
		nodes[i] = &TreeNode{Member: m}
	}
	// k-ary forest layout: the first k nodes are roots and node i's
	// children are nodes k*(i+1) … k*(i+2)-1, so every non-root has
	// exactly one parent and no member lands in two subtrees.
	var plan TreePlan
	for i, n := range nodes {
		if i < branching {
			plan.Roots = append(plan.Roots, n)
		}
		for c := branching * (i + 1); c < branching*(i+2) && c < len(nodes); c++ {
			n.Children = append(n.Children, nodes[c])
		}
	}
	return plan
}

// SubtreeResult is one member's outcome reported up the relay tree,
// preserving the participant's registration identity so collation stays
// byte-identical to direct delivery.
type SubtreeResult struct {
	// Index is the member's registration index (TreeMember.Index).
	Index int
	// Attempts is how many at-least-once delivery attempts the relay made.
	Attempts int
	// Outcome is the action's response when Err is nil.
	Outcome Outcome
	// Err is the delivery failure after the relay exhausted its attempts.
	Err error
}

// SubtreeDeliverer is the optional interface of relay-capable Actions: a
// proxy whose host can accept a whole subtree batch, deliver the signal to
// its own span, forward to child relays and aggregate the outcomes. The
// coordinator's tree delivery only routes through actions implementing it;
// everything else is delivered directly.
type SubtreeDeliverer interface {
	// RelayInfo reports the action's node identity for tree planning.
	RelayInfo() RelayInfo
	// DeliverSubtree delivers sig to every member of the subtree rooted at
	// node, applying retry per member, and returns one result per member.
	// An error (or a member missing from the results) means that part of
	// the subtree was not delivered; the coordinator re-adopts it and
	// redelivers directly, so subtree delivery — like all delivery — is at
	// least once and actions must stay idempotent.
	DeliverSubtree(ctx context.Context, sig Signal, node *TreeNode, retry RetryPolicy) ([]SubtreeResult, error)
}

// planMembers partitions one broadcast's registrations into relay-capable
// tree members and directly-delivered indexes.
func planMembers(regs []registration) (members []TreeMember, direct []int) {
	for i, reg := range regs {
		if sd, ok := reg.action.(SubtreeDeliverer); ok {
			info := sd.RelayInfo()
			members = append(members, TreeMember{
				Index:  i,
				Label:  reg.name(),
				Node:   info.Node,
				RTT:    info.RTT,
				Action: reg.action,
			})
		} else {
			direct = append(direct, i)
		}
	}
	return members, direct
}

// broadcastTree delivers sig through a relay tree: relay-capable actions
// are partitioned into branching-factor subtrees (DeliveryPolicy.Planner),
// each root subtree is delivered as one batch — the root relays to its own
// span and forwards to child relays, aggregating outcomes up — and actions
// that cannot relay are delivered directly through the worker pool.
// Responses are fed to the set strictly in registration order, so
// collation, advance short-circuiting and the recorded trace are
// byte-identical to serial and parallel delivery. A subtree whose relay
// fails (or which returns no result for a member) is re-adopted: the
// coordinator redelivers those members directly, which is why tree
// delivery keeps the at-least-once contract and actions must be
// idempotent. Like parallel delivery it is speculative: an advance cannot
// recall batches already relayed.
func (c *Coordinator) broadcastTree(ctx context.Context, driver *setDriver, regs []registration, sig Signal, policy DeliveryPolicy) (bool, error) {
	n := len(regs)
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var shortCircuit atomic.Bool

	results := make([]attemptResult, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}

	members, direct := planMembers(regs)
	planner := policy.Planner
	if planner == nil {
		planner = GreedyNearestPlanner{}
	}
	branching := policy.Branching
	if branching <= 0 {
		branching = DefaultBranching
	}
	plan := planner.Plan(members, branching)

	var wg sync.WaitGroup

	// Direct deliveries run through the same bounded worker pool parallel
	// delivery uses.
	if len(direct) > 0 {
		jobs := make(chan int, len(direct))
		for _, idx := range direct {
			jobs <- idx
		}
		close(jobs)
		for w := policy.workers(len(direct)); w > 0; w-- {
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
	}

	// One concurrent batch per root subtree.
	for _, root := range plan.Roots {
		wg.Add(1)
		go func(root *TreeNode) {
			defer wg.Done()
			c.deliverSubtree(dctx, &shortCircuit, regs, results, ready, sig, root)
		}(root)
	}
	// All spawned work finishes before we return, so no goroutine outlives
	// the broadcast.
	defer wg.Wait()

	advance := false
	var feedErr error
	for i := 0; i < n; i++ {
		<-ready[i]
		if advance || feedErr != nil {
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

// deliverSubtree delivers one root subtree: the batch through the root's
// SubtreeDeliverer, then direct redelivery (re-adoption) for any member
// the batch failed to cover — the tree-reconfiguration path when a relay
// dies mid-round.
func (c *Coordinator) deliverSubtree(ctx context.Context, shortCircuit *atomic.Bool, regs []registration, results []attemptResult, ready []chan struct{}, sig Signal, root *TreeNode) {
	idxs := root.indexes(nil)
	if shortCircuit.Load() {
		for _, idx := range idxs {
			results[idx].skipped = true
			close(ready[idx])
		}
		return
	}

	var byIndex map[int]SubtreeResult
	if sd, ok := root.Member.Action.(SubtreeDeliverer); ok {
		if res, err := sd.DeliverSubtree(ctx, sig, root, c.retry); err == nil {
			byIndex = make(map[int]SubtreeResult, len(res))
			for _, r := range res {
				byIndex[r.Index] = r
			}
		}
	}

	for _, idx := range idxs {
		if r, ok := byIndex[idx]; ok {
			attempts := r.Attempts
			if attempts < 1 {
				attempts = 1
			}
			results[idx] = attemptResult{outcome: r.Outcome, err: r.Err, attempts: attempts}
			close(ready[idx])
			continue
		}
		// Re-adopt the orphaned member: deliver directly, idempotency
		// absorbing any duplicate the dead relay already managed.
		if shortCircuit.Load() {
			results[idx].skipped = true
		} else {
			results[idx] = c.runAttempts(ctx, regs[idx], sig, false)
		}
		close(ready[idx])
	}
}
