package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/orb"
)

// The traced run times calls into each layer from the benchmark's own
// code: wrapper resources and actions, the OTS event hook, a wrapped
// decision gate, a counting client transport, client interceptors and
// the stats snapshots the layers export. Nothing inside the program is
// instrumented.

// spanDef names one kind of span and the kind that calls it. Spans whose
// parent is "op" are the direct children of one benchmark operation;
// spans with no parent are measured intervals kept out of the call tree
// (they overlap their siblings).
type spanDef struct {
	name, parent string
}

// maxRawSpans bounds the spans kept verbatim for the span dump; the
// aggregates cover every span.
const maxRawSpans = 200000

type spanRec struct {
	op         uint64
	kind       int
	start, end int64 // ns since the tracer started
}

// tracer aggregates span durations per kind over every traced round of a
// run and keeps the first maxRawSpans spans for the dump written when the
// run ends.
type tracer struct {
	defs  []spanDef
	epoch time.Time
	n     []atomic.Int64
	ns    []atomic.Int64

	kept atomic.Int64 // slots of raw claimed so far
	raw  []spanRec
}

func newTracer(defs []spanDef) *tracer {
	return &tracer{
		defs:  defs,
		epoch: time.Now(),
		n:     make([]atomic.Int64, len(defs)),
		ns:    make([]atomic.Int64, len(defs)),
		raw:   make([]spanRec, maxRawSpans),
	}
}

// kind returns the index of the span named name; a missing name is a
// bug in the workload's span table.
func (t *tracer) kind(name string) int {
	for i, d := range t.defs {
		if d.name == name {
			return i
		}
	}
	panic("perfbench: unknown span " + name)
}

// record adds one span of kind k belonging to operation op. Each kept
// span gets its own slot, so recording takes no lock.
func (t *tracer) record(k int, op uint64, start, end time.Time) {
	t.n[k].Add(1)
	t.ns[k].Add(int64(end.Sub(start)))
	if i := t.kept.Add(1) - 1; i < maxRawSpans {
		t.raw[i] = spanRec{op: op, kind: k, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
	}
}

// perOpMs is the total duration of kind name per operation, in ms.
func (t *tracer) perOpMs(name string, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(t.ns[t.kind(name)].Load()) / float64(ops) / 1e6
}

// callMeanMs is the mean duration of one span of kind name, in ms.
func (t *tracer) callMeanMs(name string) float64 {
	k := t.kind(name)
	n := t.n[k].Load()
	if n == 0 {
		return 0
	}
	return float64(t.ns[k].Load()) / float64(n) / 1e6
}

// layerRow is one line of the layer table.
type layerRow struct {
	name       string
	callsPerOp float64
	totalMs    float64 // per operation
	selfMs     float64 // per operation, total minus timed child calls
	childShare float64 // share of the total covered by timed child calls
}

// table computes the layer table for ops traced operations: each span
// kind's time per operation, its self time, and the share of it covered
// by the timed calls it makes.
func (t *tracer) table(ops int) []layerRow {
	if ops == 0 {
		return nil
	}
	var rows []layerRow
	for i, d := range t.defs {
		if d.parent == "" && d.name != "op" {
			continue
		}
		total := float64(t.ns[i].Load()) / float64(ops) / 1e6
		var child float64
		for j, c := range t.defs {
			if c.parent == d.name {
				child += float64(t.ns[j].Load()) / float64(ops) / 1e6
			}
		}
		row := layerRow{name: d.name, callsPerOp: float64(t.n[i].Load()) / float64(ops),
			totalMs: total, selfMs: total - child}
		if total > 0 {
			row.childShare = child / total
		}
		rows = append(rows, row)
	}
	return rows
}

// dump writes the kept spans as tab-separated lines: op id, span name,
// parent name, start and end in ns since the tracer started. It runs
// after every recording goroutine has finished.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tparent\tstart_ns\tend_ns")
	for _, s := range t.raw[:min(t.kept.Load(), maxRawSpans)] {
		d := t.defs[s.kind]
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.op, d.name, d.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireCounters accumulates what the counting transport sees on every
// client connection of a round: requests written and replies read, so
// each frame exchanged between two ORBs is counted exactly once.
type wireCounters struct {
	frames     atomic.Int64
	bytes      atomic.Int64
	writes     atomic.Int64 // write calls (one per frame or per gathered batch)
	writeNs    atomic.Int64
	dispatched atomic.Int64 // requests dispatched by the round's servers
}

// snapshot returns frames, bytes, write calls, write ns and dispatched.
func (c *wireCounters) snapshot() [5]int64 {
	return [5]int64{c.frames.Load(), c.bytes.Load(), c.writes.Load(), c.writeNs.Load(), c.dispatched.Load()}
}

// countingTransport wraps TCPTransport and counts frames, bytes and write
// time. It keeps the TCP connection's gather-write and buffer-reuse fast
// paths, so the wire path under it is the production one.
type countingTransport struct {
	base orb.TCPTransport
	c    *wireCounters
}

// Dial implements orb.Transport.
func (t countingTransport) Dial(ctx context.Context, addr string) (orb.Conn, error) {
	conn, err := t.base.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	bw, ok1 := conn.(frameBatchWriter)
	rr, ok2 := conn.(frameReuseReader)
	if !ok1 || !ok2 {
		conn.Close()
		return nil, errors.New("perfbench: TCP connection lacks the gather-write or buffer-reuse path")
	}
	return &countingConn{Conn: conn, bw: bw, rr: rr, c: t.c}, nil
}

// The optional fast-path extensions the ORB probes a Conn for.
type frameBatchWriter interface {
	WriteFrames(bufs *net.Buffers) error
}

type frameReuseReader interface {
	ReadFrameReuse(buf []byte) ([]byte, error)
}

type countingConn struct {
	orb.Conn
	bw frameBatchWriter
	rr frameReuseReader
	c  *wireCounters
}

// framePrefix is the length prefix every frame carries on the wire.
const framePrefix = 4

func (cc *countingConn) WriteFrame(payload []byte) error {
	t0 := time.Now()
	err := cc.Conn.WriteFrame(payload)
	cc.noteWrite(t0, 1, len(payload)+framePrefix)
	return err
}

// WriteFrames passes a gathered batch (each buffer one whole frame,
// prefix included) to the TCP connection's vectored write.
func (cc *countingConn) WriteFrames(bufs *net.Buffers) error {
	n, size := len(*bufs), 0
	for _, b := range *bufs {
		size += len(b)
	}
	t0 := time.Now()
	err := cc.bw.WriteFrames(bufs)
	cc.noteWrite(t0, n, size)
	return err
}

func (cc *countingConn) noteWrite(t0 time.Time, frames, size int) {
	cc.c.writeNs.Add(int64(time.Since(t0)))
	cc.c.writes.Add(1)
	cc.c.frames.Add(int64(frames))
	cc.c.bytes.Add(int64(size))
}

func (cc *countingConn) ReadFrame() ([]byte, error) {
	b, err := cc.Conn.ReadFrame()
	cc.noteRead(b, err)
	return b, err
}

func (cc *countingConn) ReadFrameReuse(buf []byte) ([]byte, error) {
	b, err := cc.rr.ReadFrameReuse(buf)
	cc.noteRead(b, err)
	return b, err
}

func (cc *countingConn) noteRead(b []byte, err error) {
	if err == nil {
		cc.c.frames.Add(1)
		cc.c.bytes.Add(int64(len(b) + framePrefix))
	}
}

// serverTotals sums the admission counters of a set of ORBs (both stay 0
// unless an ORB bounds its dispatches).
func serverTotals(orbs []*orb.ORB) (shed uint64, queued int) {
	for _, o := range orbs {
		if st, ok := o.ServerStats(); ok {
			shed += st.Shed
			queued += st.Queued
		}
	}
	return shed, queued
}

// sampler polls gauges every sampleEvery while a round runs: process
// goroutines and live heap, the admission queue of the round's ORBs, and
// whatever the workload adds (follower lag).
type sampler struct {
	stop chan struct{}
	done chan struct{}

	mu          sync.Mutex
	goroutines  int
	heapBytes   uint64
	queuedMax   int
	extraSum    float64
	extraMax    float64
	extraN      int
	orbs        []*orb.ORB
	extra       func() float64
	heapSamples []metrics.Sample
}

const sampleEvery = 10 * time.Millisecond

func startSampler(orbs []*orb.ORB, extra func() float64) *sampler {
	s := &sampler{
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		orbs:        orbs,
		extra:       extra,
		heapSamples: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	for {
		s.sample()
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

func (s *sampler) sample() {
	g := runtime.NumGoroutine()
	metrics.Read(s.heapSamples)
	heap := s.heapSamples[0].Value.Uint64()
	_, queued := serverTotals(s.orbs)
	var x float64
	if s.extra != nil {
		x = s.extra()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.goroutines = max(s.goroutines, g)
	s.heapBytes = max(s.heapBytes, heap)
	s.queuedMax = max(s.queuedMax, queued)
	if s.extra != nil {
		s.extraSum += x
		s.extraMax = max(s.extraMax, x)
		s.extraN++
	}
}

// close stops the sampler and waits for its goroutine to exit.
func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

func writeTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "layer table (%s, traced rounds, per operation):\n", workload)
	fmt.Fprintf(w, "  %-22s %9s %11s %11s %13s\n", "span", "calls/op", "total_ms", "self_ms", "child_share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %9.2f %11.4f %11.4f %12.1f%%\n",
			r.name, r.callsPerOp, r.totalMs, r.selfMs, 100*r.childShare)
	}
}
