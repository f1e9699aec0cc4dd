// Command perfbench is the repository benchmark. It runs one named
// workload through the real stack — every node on its own ORB over
// loopback TCP, all in this one process — for a fixed time, checks every
// operation's output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Load is a closed loop of nproc clients. A run is a sequence of rounds;
// each round builds a fresh system, runs a fixed number of operations
// and tears the system down, so every round reaches the same WAL length
// and the set-up time is sampled once per round. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/extendedtx/activityservice/orb"
)

// outDir holds everything a run writes: WAL temp dirs, span dumps and
// CPU profiles. It is relative to the checkout root the benchmark runs
// from.
const outDir = ".bench_build"

// workload is one named traffic mix.
type workload struct {
	name string
	// opsPerRound is the number of measured operations in one round.
	opsPerRound int
	// warmup operations run after the first (cold) one and before the
	// measured window.
	warmup int
	// spans is the call tree the traced rounds time.
	spans []spanDef
	// spanMetrics derives the workload's per-layer metrics from the span
	// aggregates of its traced rounds.
	spanMetrics func(tr *tracer, ops int) map[string]float64
	build       func(rc *roundCtx) (system, error)
}

// roundCtx is what a workload's build gets for one round.
type roundCtx struct {
	round   int
	clients int
	names   []string // seeded activity names / route keys
	tmp     string   // per-round temp dir (WAL files)
	tr      *tracer  // nil in untraced rounds
	wire    *wireCounters
	on      *atomic.Bool // true while the measured window of a traced round runs
}

// traced reports whether the round installs its tracing wrappers.
func (rc *roundCtx) traced() bool { return rc.tr != nil }

// newORB returns a system-side ORB with the given options on top of the
// defaults. In traced rounds it dials through the counting transport and
// counts the requests it dispatches.
func (rc *roundCtx) newORB(opts ...orb.ORBOption) *orb.ORB {
	if !rc.traced() {
		return orb.New(opts...)
	}
	o := orb.New(append(opts, orb.WithTransport(countingTransport{c: rc.wire}))...)
	o.AddServerInterceptor(func(ctx context.Context, _ []orb.ServiceContext) (context.Context, error) {
		rc.wire.dispatched.Add(1)
		return ctx, nil
	})
	return o
}

// span records a span when the measured window of a traced round is on.
func (rc *roundCtx) span(k int, op uint64, start, end time.Time) {
	if rc.on.Load() {
		rc.tr.record(k, op, start, end)
	}
}

// system is one round's running deployment of a workload.
type system interface {
	// op runs operation seq on behalf of client w and checks its output.
	op(w int, seq uint64) error
	// mark snapshots the system's counters when the measured window opens.
	mark()
	// verify runs the end-of-round correctness checks.
	verify() error
	// layerMetrics returns the per-layer metrics measured since mark over
	// ops operations (traced rounds only).
	layerMetrics(ops int) map[string]float64
	// orbs lists every ORB of the round (for admission counters).
	orbs() []*orb.ORB
	// close tears the system down and waits for its goroutines.
	close()
}

// lagSampler is implemented by systems that expose a gauge for the
// sampler (follower replication lag).
type lagSampler interface {
	sampleLag() float64
}

var workloads = []*workload{commitDurable, activityFanout, activity2PCLocal}

// roundResult is what one round measured.
type roundResult struct {
	traced   bool
	setup    time.Duration
	ops      int
	failed   int
	firstErr error
	elapsed  time.Duration
	cpu      time.Duration
	mallocs  uint64
	numGC    uint32
	pauseNs  uint64
	lat      hist
	decay    float64
	layers   map[string]float64
	wire     [5]int64 // frames, bytes, write calls, write ns, dispatched
	shed     uint64
	samp     *sampler
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: commit_durable, activity_fanout or activity_2pc_local")
		seed    = flag.Uint64("seed", 1, "seed for activity names and route keys")
		seconds = flag.Int("seconds", 30, "measured run length in seconds")
		trace   = flag.Int("trace", 0, "1 = per-layer run: alternate traced and untraced rounds, write spans and a CPU profile")
	)
	flag.Parse()
	var wl *workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(filepath.Join(outDir, "out"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmpRoot, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmpRoot)

	env, err := stampEnv(tmpRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: environment stamp:", err)
		return 1
	}
	steal0, total0 := cpuTicks()
	res, err := runRounds(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, tmpRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		env.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	env.loadAfter = loadavg()
	return report(os.Stdout, wl, *seed, *trace == 1, env, res)
}

// runResult is everything a run measured.
type runResult struct {
	rounds []*roundResult
	tr     *tracer
	prof   string
}

// seededNames generates the seeded activity names (the fan-out workload's
// route keys). A ring of them is reused, so the names cost no allocation
// inside the measured window.
func seededNames(seed uint64, n int) []string {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("act-%016x", rng.Uint64())
	}
	return out
}

func runRounds(wl *workload, seed uint64, budget time.Duration, traceMode bool, tmpRoot string) (*runResult, error) {
	clients := runtime.NumCPU()
	names := seededNames(seed, 4096)
	rr := &runResult{}
	var on atomic.Bool
	if traceMode {
		rr.tr = newTracer(wl.spans)
		rr.prof = filepath.Join(outDir, "out", fmt.Sprintf("%s-seed%d.cpu.pprof", wl.name, seed))
		f, err := os.Create(rr.prof)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	hists := make([]hist, clients)
	minRounds := 1
	if traceMode {
		minRounds = 2
	}
	var roundTimes []float64
	start := time.Now()
	for round := 0; ; round++ {
		traced := traceMode && round%2 == 1
		// Start another round only while it is expected to end within half
		// a round of the budget, so a run lasts about budget seconds.
		left := (budget - time.Since(start)).Seconds()
		if round >= minRounds && left < quantileOf(roundTimes, 0.5)/2 {
			break
		}
		roundStart := time.Now()
		dir, err := os.MkdirTemp(tmpRoot, fmt.Sprintf("round%d-", round))
		if err != nil {
			return nil, err
		}
		rc := &roundCtx{round: round, clients: clients, names: names, tmp: dir, on: &on}
		if traced {
			rc.tr = rr.tr
			rc.wire = &wireCounters{}
		}
		res, err := runRound(wl, rc, hists, traceMode)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", wl.name, round, err)
		}
		res.traced = traced
		rr.rounds = append(rr.rounds, res)
		roundTimes = append(roundTimes, time.Since(roundStart).Seconds())
	}
	return rr, nil
}

func runRound(wl *workload, rc *roundCtx, hists []hist, sample bool) (*roundResult, error) {
	res := &roundResult{}
	opBase := uint64(rc.round) << 32
	t0 := time.Now()
	sys, err := wl.build(rc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer sys.close()
	// The first operation is cold (connections dial, pools fill); it
	// belongs to set-up.
	if err := sys.op(0, opBase); err != nil {
		return nil, fmt.Errorf("first operation: %w", err)
	}
	res.setup = time.Since(t0)
	for i := 1; i <= wl.warmup; i++ {
		if err := sys.op(i%rc.clients, opBase+uint64(i)); err != nil {
			return nil, fmt.Errorf("warm-up operation: %w", err)
		}
	}
	if s, ok := sys.(interface{ settle() error }); ok {
		if err := s.settle(); err != nil {
			return nil, fmt.Errorf("settle after warm-up: %w", err)
		}
	}

	for i := range hists {
		hists[i] = hist{}
	}
	n := wl.opsPerRound
	seqBase := opBase + uint64(wl.warmup) + 1
	var next, done atomic.Int64
	var t10, t90 atomic.Int64
	failed := make([]int, rc.clients)
	firstErr := make([]error, rc.clients)
	var opKind int
	if rc.traced() {
		opKind = rc.tr.kind("op")
	}

	if sample {
		var lag func() float64
		if ls, ok := sys.(lagSampler); ok {
			lag = ls.sampleLag
		}
		res.samp = startSampler(sys.orbs(), lag)
	}
	sys.mark()
	var wire0 [5]int64
	if rc.wire != nil {
		wire0 = rc.wire.snapshot()
	}
	shed0, _ := serverTotals(sys.orbs())
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	rc.on.Store(rc.traced())
	begin := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < rc.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := &hists[w]
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				seq := seqBase + uint64(i)
				ts := time.Now()
				err := sys.op(w, seq)
				te := time.Now()
				h.add(te.Sub(ts))
				if rc.traced() {
					rc.span(opKind, seq, ts, te)
				}
				if err != nil {
					if failed[w] == 0 {
						firstErr[w] = err
					}
					failed[w]++
				}
				switch c := done.Add(1); c {
				case int64(n / 10):
					t10.Store(int64(te.Sub(begin)))
				case int64(n - n/10):
					t90.Store(int64(te.Sub(begin)))
				}
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(begin)
	rc.on.Store(false)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	if res.samp != nil {
		res.samp.close()
	}
	res.ops = n
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.numGC = ms1.NumGC - ms0.NumGC
	res.pauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	shed1, _ := serverTotals(sys.orbs())
	res.shed = shed1 - shed0
	if rc.wire != nil {
		w1 := rc.wire.snapshot()
		for i := range w1 {
			res.wire[i] = w1[i] - wire0[i]
		}
	}
	for w := range hists {
		res.lat.merge(&hists[w])
		res.failed += failed[w]
		if res.firstErr == nil {
			res.firstErr = firstErr[w]
		}
	}
	if first, last := float64(t10.Load()), float64(int64(res.elapsed)-t90.Load()); first > 0 && last > 0 {
		res.decay = first / last
	}
	if err := sys.verify(); err != nil {
		// A failed end-of-round check taints every operation of the round.
		res.failed = res.ops
		res.firstErr = fmt.Errorf("end-of-round check: %w", err)
	}
	if rc.traced() {
		res.layers = sys.layerMetrics(n)
		if s := res.samp; s != nil && s.extraN > 0 {
			res.layers["remote.follower_lag_records"] = s.extraSum / float64(s.extraN)
			res.layers["remote.follower_lag_max"] = s.extraMax
		}
	}
	return res, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are the gated end-to-end metrics, in report order.
var e2eMetrics = []struct{ name, unit string }{
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"setup_s", "s"},
}

// layerMetricNames are the per-layer metrics every traced run reports, in
// report order; a metric the workload does not exercise reads 0 in the
// JSON line and n/a in the table.
var layerMetricNames = []struct{ name, unit string }{
	{"ots.prepare_ms", "ms"},
	{"ots.decision_ms", "ms"},
	{"ots.phase2_ms", "ms"},
	{"ots.done_ms", "ms"},
	{"ots.self_ms", "ms"},
	{"wal.decision_append_ms", "ms"},
	{"wal.records_per_op", "count"},
	{"wal.bytes_per_op", "B"},
	{"wal.log_bytes_end", "B"},
	{"remote.gate_wait_ms", "ms"},
	{"remote.gate_wait_p90_ms", "ms"},
	{"remote.repl_fetches_per_op", "count"},
	{"remote.follower_lag_records", "count"},
	{"remote.follower_lag_max", "count"},
	{"remote.elections", "count"},
	{"remote.begin_ms", "ms"},
	{"remote.add_action_ms", "ms"},
	{"remote.complete_ms", "ms"},
	{"remote.router_refreshes", "count"},
	{"remote.router_redirects", "count"},
	{"orb.participant_rtt_ms", "ms"},
	{"orb.frames_per_op", "count"},
	{"orb.bytes_per_op", "B"},
	{"orb.write_frame_us", "us"},
	{"orb.dispatched_per_op", "count"},
	{"orb.shed_per_op", "count"},
	{"orb.queued_max", "count"},
	{"core.begin_us", "us"},
	{"core.enlist_us", "us"},
	{"core.commit_us", "us"},
	{"core.signal_fanout_ms", "ms"},
	{"core.deliveries_per_op", "count"},
	{"runtime.gc_per_kop", "count"},
	{"runtime.gc_pause_us_per_op", "us"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.goroutines_peak", "count"},
	{"tail.p99_ms", "ms"},
	{"tail.max_ms", "ms"},
	{"tail.stalls_1s", "count"},
	{"tail.decay_ratio", "ratio"},
	{"trace.p50_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.closure_ratio", "ratio"},
	{"env.fsync_p50_us", "us"},
	{"env.loadavg_before", "load"},
	{"env.loadavg_after", "load"},
	{"env.steal_pct", "%"},
}

// summary aggregates a set of rounds.
type summary struct {
	ops, failed int
	firstErr    error
	numGC       uint64
	pauseNs     uint64
	lat         hist                 // every sample, for the tail metrics
	perRound    map[string][]float64 // end-to-end metrics of each round
	decays      []float64
}

func summarize(rounds []*roundResult) *summary {
	s := &summary{perRound: map[string][]float64{}}
	for _, r := range rounds {
		s.ops += r.ops
		s.failed += r.failed
		if s.firstErr == nil {
			s.firstErr = r.firstErr
		}
		s.numGC += uint64(r.numGC)
		s.pauseNs += r.pauseNs
		s.lat.merge(&r.lat)
		for k, v := range r.e2e() {
			s.perRound[k] = append(s.perRound[k], v)
		}
		if r.decay > 0 {
			s.decays = append(s.decays, r.decay)
		}
	}
	return s
}

// e2e is the round's end-to-end metrics.
func (r *roundResult) e2e() map[string]float64 {
	ops := float64(r.ops)
	return map[string]float64{
		"ops_per_s":     ops / r.elapsed.Seconds(),
		"p50_ms":        r.lat.quantile(0.50),
		"p90_ms":        r.lat.quantile(0.90),
		"cpu_us_per_op": float64(r.cpu.Nanoseconds()) / 1e3 / ops,
		"allocs_per_op": float64(r.mallocs) / ops,
		"setup_s":       r.setup.Seconds(),
	}
}

// e2e reports each timing metric from the best decile of the rounds: the
// 90th percentile of per-round throughput and the 10th percentile of
// every per-round time. Load from outside the benchmark (other guests on
// the host, their disk traffic) only ever slows a round down, so the fast
// rounds estimate the program's own cost; the slow ones stay visible in
// the tail metrics and the per-round lines. Allocation counts are not
// slowed by outside load, so they are the median over rounds.
func (s *summary) e2e() map[string]float64 {
	out := map[string]float64{}
	for k, v := range s.perRound {
		q := 0.10
		switch k {
		case "ops_per_s":
			q = 0.90
		case "allocs_per_op":
			q = 0.50
		}
		out[k] = quantileOf(v, q)
	}
	return out
}

func report(out *os.File, wl *workload, seed uint64, traceMode bool, env envStamp, rr *runResult) int {
	var plain, traced []*roundResult
	for _, r := range rr.rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	all := summarize(rr.rounds)
	ps := summarize(plain)
	e2e := ps.e2e()

	fmt.Fprintf(out, "perfbench %s seed=%d trace=%v rounds=%d (untraced %d, traced %d) clients=%d\n",
		wl.name, seed, traceMode, len(rr.rounds), len(plain), len(traced), runtime.NumCPU())
	fmt.Fprintf(out, "env commit=%s source_sha256=%s go=%s nproc=%d gomaxprocs=%d loadavg_before=%.2f loadavg_after=%.2f fsync_p50_us=%.1f steal_pct=%.2f\n",
		env.commit, env.source, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		env.loadBefore, env.loadAfter, env.fsyncP50us, env.stealPct)
	for i, r := range rr.rounds {
		m := r.e2e()
		fmt.Fprintf(out, "round %d traced=%v setup_s=%.6f ops_per_s=%.1f p50_ms=%.4f p90_ms=%.4f cpu_us_per_op=%.1f decay=%.3f failed=%d\n",
			i, r.traced, m["setup_s"], m["ops_per_s"], m["p50_ms"], m["p90_ms"], m["cpu_us_per_op"], r.decay, r.failed)
	}
	fmt.Fprintf(out, "end-to-end (best decile of untraced rounds; %d ops, %d failed):\n", ps.ops, ps.failed)
	for _, m := range e2eMetrics {
		fmt.Fprintf(out, "  %-16s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	failRatio := float64(all.failed) / float64(all.ops)
	fmt.Fprintf(out, "  %-16s %14.6g ratio (all rounds)\n", "fail_ratio", failRatio)
	fmt.Fprintf(out, "  %-16s %14.6g ms (not gated)\n", "p99_ms", ps.lat.quantile(0.99))
	tail := tailMetrics(ps)
	fmt.Fprintf(out, "tail: p99_ms=%.4f max_ms=%.4f stalls_1s=%v decay_ratio=%.4f\n",
		tail["tail.p99_ms"], tail["tail.max_ms"], tail["tail.stalls_1s"], tail["tail.decay_ratio"])
	if all.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", all.firstErr)
	}

	metrics := map[string]metric{}
	if !traceMode {
		for _, m := range e2eMetrics {
			metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	} else {
		ts := summarize(traced)
		layers := layerValues(wl, rr, ps, ts, traced)
		for k, v := range tail {
			layers[k] = v
		}
		layers["env.fsync_p50_us"] = env.fsyncP50us
		layers["env.loadavg_before"] = env.loadBefore
		layers["env.loadavg_after"] = env.loadAfter
		layers["env.steal_pct"] = env.stealPct
		writeTable(out, wl.name, rr.tr.table(ts.ops))
		fmt.Fprintf(out, "per-layer (traced rounds, %d ops; runtime and tail from untraced rounds):\n", ts.ops)
		for _, m := range layerMetricNames {
			v, ok := layers[m.name]
			if ok {
				fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.name, v, m.unit)
			} else {
				fmt.Fprintf(out, "  %-28s %14s %s\n", m.name, "n/a", m.unit)
			}
			metrics[m.name] = metric{v, m.unit}
		}
		spans := filepath.Join(outDir, "out", fmt.Sprintf("%s-seed%d.spans.tsv", wl.name, seed))
		if err := rr.tr.dump(spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: span dump:", err)
			return 1
		}
		fmt.Fprintf(out, "spans: %s  cpu profile: %s\n", spans, rr.prof)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{all.failed == 0, all.ops, all.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// tailMetrics is the stall and tail detector over untraced rounds.
func tailMetrics(s *summary) map[string]float64 {
	return map[string]float64{
		"tail.p99_ms":      s.lat.quantile(0.99),
		"tail.max_ms":      float64(s.lat.max) / 1e6,
		"tail.stalls_1s":   float64(s.lat.countAbove(time.Second)),
		"tail.decay_ratio": quantileOf(s.decays, 0.5),
	}
}

// layerValues assembles the per-layer metrics of a trace-mode run: span
// means from the tracer, the workload's own per-round metrics (median over
// traced rounds), wire and admission counters from the traced rounds, and
// runtime counters from the untraced rounds.
func layerValues(wl *workload, rr *runResult, ps, ts *summary, traced []*roundResult) map[string]float64 {
	out := map[string]float64{}
	perKey := map[string][]float64{}
	var frames, bytes, writes, writeNs, disp int64
	var shed uint64
	for _, r := range traced {
		for k, v := range r.layers {
			perKey[k] = append(perKey[k], v)
		}
		frames += r.wire[0]
		bytes += r.wire[1]
		writes += r.wire[2]
		writeNs += r.wire[3]
		disp += r.wire[4]
		shed += r.shed
	}
	keys := make([]string, 0, len(perKey))
	for k := range perKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out[k] = quantileOf(perKey[k], 0.5)
	}
	ops := float64(ts.ops)
	if len(traced) > 0 && len(traced[0].samp.orbs) > 0 {
		out["orb.frames_per_op"] = float64(frames) / ops
		out["orb.bytes_per_op"] = float64(bytes) / ops
		if writes > 0 {
			out["orb.write_frame_us"] = float64(writeNs) / float64(writes) / 1e3
		}
		out["orb.dispatched_per_op"] = float64(disp) / ops
		out["orb.shed_per_op"] = float64(shed) / ops
		qmax := 0
		for _, r := range traced {
			qmax = max(qmax, r.samp.queuedMax)
		}
		out["orb.queued_max"] = float64(qmax)
	}
	gmax, hmax := 0, uint64(0)
	for _, r := range rr.rounds {
		if r.samp != nil {
			gmax = max(gmax, r.samp.goroutines)
			hmax = max(hmax, r.samp.heapBytes)
		}
	}
	out["runtime.gc_per_kop"] = float64(ps.numGC) / float64(ps.ops) * 1000
	out["runtime.gc_pause_us_per_op"] = float64(ps.pauseNs) / float64(ps.ops) / 1e3
	out["runtime.heap_peak_mb"] = float64(hmax) / (1 << 20)
	out["runtime.goroutines_peak"] = float64(gmax)
	tp50, up50 := ts.lat.quantile(0.5), ps.lat.quantile(0.5)
	out["trace.p50_ms"] = tp50
	out["trace.untraced_p50_ms"] = up50
	if up50 > 0 {
		out["trace.overhead_pct"] = 100 * (tp50 - up50) / up50
	}
	// Closure: the timed direct children of an operation against the
	// operation's own latency, both measured in the traced rounds. A
	// workload may refine it in its spanMetrics.
	var child float64
	for _, row := range rr.tr.table(ts.ops) {
		for _, d := range wl.spans {
			if d.name == row.name && d.parent == "op" {
				child += row.totalMs
			}
		}
	}
	if m := ts.lat.meanMs(); m > 0 {
		out["trace.closure_ratio"] = child / m
	}
	for k, v := range wl.spanMetrics(rr.tr, ts.ops) {
		out[k] = v
	}
	return out
}
