package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// Property group errors.
var (
	// ErrReadOnlyProperty reports a write to a read-only view.
	ErrReadOnlyProperty = errors.New("core: property group is read-only in this context")
	// ErrDuplicatePropertyGroup reports registering a second group with the
	// same name on one activity.
	ErrDuplicatePropertyGroup = errors.New("core: property group already registered")
	// ErrUncodableProperty reports a value outside the cdr-any codable set.
	ErrUncodableProperty = errors.New("core: property value is not codable")
)

// PropertyGroup manages a group of properties as a tuple-space of
// attribute/value pairs (§3.3). Implementations define the behaviour of
// the group with respect to nested activities and downstream propagation.
type PropertyGroup interface {
	// Name identifies the group within an activity.
	Name() string
	// Get returns the value bound to key.
	Get(key string) (any, bool)
	// Set binds key to value. Values must be cdr-any codable so groups can
	// propagate by value.
	Set(key string, value any) error
	// Delete removes a binding, reporting whether it existed.
	Delete(key string) bool
	// Keys returns the bound keys in sorted order.
	Keys() []string
}

// ChildDeriver is implemented by property groups that produce a distinct
// view for nested activities; groups without it are shared with children.
type ChildDeriver interface {
	// DeriveChild returns the view a nested activity receives.
	DeriveChild() PropertyGroup
}

// NestedVisibility controls what a nested activity sees of a group and
// whether its updates surface in the parent (§3.3: "one type of
// PropertyGroup may allow updated properties to be transmitted within
// nested contexts, while another may not").
type NestedVisibility int

// Nesting behaviours.
const (
	// VisibilityShared: parent and children share one tuple space; updates
	// are visible in both directions.
	VisibilityShared NestedVisibility = iota + 1
	// VisibilityCopy: a child gets a snapshot; its updates stay private.
	VisibilityCopy
	// VisibilityReadOnly: a child reads the parent's live values but cannot
	// override them (the paper's "client environment" example: overriding
	// locale in nested contexts makes no sense).
	VisibilityReadOnly
)

// Propagation controls how a group travels with distributed invocations.
type Propagation int

// Propagation behaviours.
const (
	// PropagateByValue ships a snapshot of the tuples with the request.
	PropagateByValue Propagation = iota + 1
	// PropagateByReference ships only a resolvable reference.
	PropagateByReference
	// PropagateNone keeps the group node-local.
	PropagateNone
)

// tupleStripes is the stripe count of a TupleSpace; a power of two so the
// key hash masks cheaply.
const tupleStripes = 16

// tupleStripe is one lock-striped slice of a TupleSpace.
type tupleStripe struct {
	mu   sync.RWMutex
	data map[string]any
}

// tupleStripeFor hashes key (FNV-1a) onto a stripe index.
func tupleStripeFor(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h & (tupleStripes - 1))
}

// TupleSpace is the standard PropertyGroup implementation: a lock-striped
// attribute/value space with configurable nesting and propagation
// behaviour. Striping lets many goroutines touch disjoint keys without
// contending on one mutex. Safe for concurrent use.
type TupleSpace struct {
	name        string
	visibility  NestedVisibility
	propagation Propagation

	parent *TupleSpace // non-nil for read-only child views

	// global keeps whole-space operations point-in-time atomic with
	// respect to per-key operations — the same guarantee the pre-striping
	// single mutex gave. Per-key ops hold the shared side plus their
	// stripe lock. Keys/Snapshot hold the shared side plus every stripe
	// read lock at once (freezing writers while still running concurrently
	// with Gets and with each other); only replace, which swaps the stripe
	// maps themselves, takes the exclusive side.
	global  sync.RWMutex
	stripes [tupleStripes]tupleStripe
}

// rlockAll read-locks every stripe in index order, freezing all writers
// for a consistent whole-space read. Callers must hold global.RLock.
func (t *TupleSpace) rlockAll() {
	for i := range t.stripes {
		t.stripes[i].mu.RLock()
	}
}

func (t *TupleSpace) runlockAll() {
	for i := range t.stripes {
		t.stripes[i].mu.RUnlock()
	}
}

var _ PropertyGroup = (*TupleSpace)(nil)
var _ ChildDeriver = (*TupleSpace)(nil)

// NewTupleSpace returns an empty TupleSpace with the given behaviours.
func NewTupleSpace(name string, visibility NestedVisibility, propagation Propagation) *TupleSpace {
	t := &TupleSpace{
		name:        name,
		visibility:  visibility,
		propagation: propagation,
	}
	for i := range t.stripes {
		t.stripes[i].data = make(map[string]any)
	}
	return t
}

// Name implements PropertyGroup.
func (t *TupleSpace) Name() string { return t.name }

// Visibility returns the nesting behaviour.
func (t *TupleSpace) Visibility() NestedVisibility { return t.visibility }

// Propagation returns the distribution behaviour.
func (t *TupleSpace) Propagation() Propagation { return t.propagation }

// Get implements PropertyGroup. Read-only views consult the parent.
func (t *TupleSpace) Get(key string) (any, bool) {
	if t.parent != nil {
		return t.parent.Get(key)
	}
	t.global.RLock()
	defer t.global.RUnlock()
	s := &t.stripes[tupleStripeFor(key)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.data[key]
	return v, ok
}

// Set implements PropertyGroup.
func (t *TupleSpace) Set(key string, value any) error {
	if t.parent != nil {
		return fmt.Errorf("%w: %q in group %q", ErrReadOnlyProperty, key, t.name)
	}
	if _, err := cdr.MarshalAny(value); err != nil {
		return fmt.Errorf("%w: %q: %v", ErrUncodableProperty, key, err)
	}
	t.global.RLock()
	defer t.global.RUnlock()
	s := &t.stripes[tupleStripeFor(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[key] = value
	return nil
}

// Delete implements PropertyGroup.
func (t *TupleSpace) Delete(key string) bool {
	if t.parent != nil {
		return false
	}
	t.global.RLock()
	defer t.global.RUnlock()
	s := &t.stripes[tupleStripeFor(key)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.data[key]; !ok {
		return false
	}
	delete(s.data, key)
	return true
}

// Keys implements PropertyGroup. The listing is point-in-time atomic:
// all stripes are read-locked together, so no writer interleaves.
func (t *TupleSpace) Keys() []string {
	if t.parent != nil {
		return t.parent.Keys()
	}
	t.global.RLock()
	defer t.global.RUnlock()
	t.rlockAll()
	defer t.runlockAll()
	var keys []string
	for i := range t.stripes {
		for k := range t.stripes[i].data {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns a copy of the tuples. The copy is point-in-time
// atomic across the whole space (all stripes read-locked together), so
// by-value propagation never ships a torn state; concurrent Gets and
// other snapshots are not blocked.
func (t *TupleSpace) Snapshot() map[string]any {
	if t.parent != nil {
		return t.parent.Snapshot()
	}
	t.global.RLock()
	defer t.global.RUnlock()
	t.rlockAll()
	defer t.runlockAll()
	out := make(map[string]any)
	for i := range t.stripes {
		for k, v := range t.stripes[i].data {
			out[k] = v
		}
	}
	return out
}

// DeriveChild implements ChildDeriver per the configured visibility.
func (t *TupleSpace) DeriveChild() PropertyGroup {
	switch t.visibility {
	case VisibilityShared:
		return t
	case VisibilityCopy:
		child := NewTupleSpace(t.name, t.visibility, t.propagation)
		child.replace(t.Snapshot())
		return child
	case VisibilityReadOnly:
		root := t
		for root.parent != nil {
			root = root.parent
		}
		return &TupleSpace{
			name:        t.name,
			visibility:  t.visibility,
			propagation: t.propagation,
			parent:      root,
		}
	default:
		return t
	}
}

// MarshalTuples encodes the group's tuples for by-value propagation.
func (t *TupleSpace) MarshalTuples() ([]byte, error) {
	b, err := cdr.MarshalAny(t.Snapshot())
	if err != nil {
		return nil, fmt.Errorf("core: marshal property group %q: %w", t.name, err)
	}
	return b, nil
}

// UnmarshalTuples replaces the group's tuples from an encoded snapshot.
func (t *TupleSpace) UnmarshalTuples(b []byte) error {
	v, err := cdr.UnmarshalAny(b)
	if err != nil {
		return fmt.Errorf("core: unmarshal property group %q: %w", t.name, err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		return fmt.Errorf("core: property group %q payload is %T, want map", t.name, v)
	}
	t.replace(m)
	return nil
}

// replace swaps the full tuple contents atomically (exclusive global
// lock): no concurrent reader can observe a mix of old and new tuples.
func (t *TupleSpace) replace(m map[string]any) {
	t.global.Lock()
	defer t.global.Unlock()
	for i := range t.stripes {
		t.stripes[i].data = make(map[string]any)
	}
	for k, v := range m {
		t.stripes[tupleStripeFor(k)].data[k] = v
	}
}

// deriveChild applies the nesting behaviour of any PropertyGroup.
func deriveChild(pg PropertyGroup) PropertyGroup {
	if d, ok := pg.(ChildDeriver); ok {
		return d.DeriveChild()
	}
	return pg
}

// AddPropertyGroup registers a property group with the activity. Children
// begun afterwards derive their view per the group's nesting behaviour.
func (a *Activity) AddPropertyGroup(pg PropertyGroup) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == ActivityCompleted {
		return fmt.Errorf("%w: %s", ErrActivityInactive, a.name)
	}
	if _, dup := a.pgroups[pg.Name()]; dup {
		return fmt.Errorf("%w: %q on %s", ErrDuplicatePropertyGroup, pg.Name(), a.name)
	}
	if a.pgroups == nil {
		a.pgroups = make(map[string]PropertyGroup)
	}
	a.pgroups[pg.Name()] = pg
	return nil
}

// PropertyGroup returns the activity's group with the given name.
func (a *Activity) PropertyGroup(name string) (PropertyGroup, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pg, ok := a.pgroups[name]
	return pg, ok
}

// PropertyGroupNames lists the activity's registered groups, sorted.
func (a *Activity) PropertyGroupNames() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.pgroups))
	for n := range a.pgroups {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
