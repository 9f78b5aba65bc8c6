// Command enginebench is the repository's end-to-end benchmark.  From
// one process and one client goroutine it replays a seeded workload
// trace through the public rda API — restarts, checkpoints and drive
// failures included — checks the engine's outputs against an oracle,
// and prints every metric by name and unit.  The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.  With -trace 0 the metrics are the end-to-end ones; with
// -trace 1 a separate traced run reports per-layer costs, from spans
// recorded around every engine call and from probes that time each
// layer's exported functions directly.
//
// Run it from the repository root:
//
//	bash enginebench/run.sh --workload steal-uniform --seed 1 --seconds 10 --trace 0
//
// The engine runs with one worker, synchronous drives, no simulated
// service time and no group-commit window: no engine goroutine runs and
// nothing sleeps, so the transfer, log, buffer and recovery counts
// repeat bit-for-bit for a seed and the timings measure engine CPU.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// gcPercent is the collector target every run uses, whatever GOGC says.
const gcPercent = 400

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int // set-ups per run; setup_s is their median
	spansOut string
	// minSamples is the least number of restarts (and, on pq-degraded,
	// rebuilds) the measured passes must reach; zero means the default.
	minSamples int
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		os.Exit(2)
	}
	res, err := runBench(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("enginebench", flag.ContinueOnError)
	o := options{setups: 5}
	var traced int
	fs.StringVar(&o.workload, "workload", "", "workload: steal-uniform, bank-noforce or pq-degraded")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (the trace and the drive-failure picks)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured replay time; whole trace passes run until it is spent")
	fs.IntVar(&traced, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&o.spansOut, "spans-out", "", "span file of a traced run (default .bench_build/spans/<workload>.tsv)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if traced != 0 && traced != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	o.trace = traced == 1
	if o.spansOut == "" {
		o.spansOut = ".bench_build/spans/" + o.workload + ".tsv"
	}
	return o, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	names             []string // report order
	metrics           map[string]metric
	counts            exactCounts
}

func (r *result) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

// exactCounts are the first pass's transaction-path counts: a pure
// function of the seed, compared bit-for-bit by the determinism test.
type exactCounts struct {
	Committed, Aborted                  int64
	Reads, Writes, LogWrites, LogReads  int64
	LogRecords, LogBytes                int64
	Hits, Misses, Steals                int64
	DegReads, DegWrites                 int64
	Restarts, Losers, UndoParity        int64
	UndoLog, Redone, RestartXfer        int64
	Rebuilds, RebuildSteps, RebuildXfer int64
	Checkpoints                         int64
	Drive                               string
}

func countsOf(a *accum) exactCounts {
	p := &a.path
	return exactCounts{
		Committed: a.committed, Aborted: a.aborted,
		Reads: p.reads, Writes: p.writes, LogWrites: p.logWrites, LogReads: p.logReads,
		LogRecords: p.logRecords, LogBytes: p.logBytes,
		Hits: p.hits, Misses: p.misses, Steals: p.steals,
		DegReads: p.degReads, DegWrites: p.degWrites,
		Restarts: a.restarts, Losers: a.losers, UndoParity: a.undoParity,
		UndoLog: a.undoLog, Redone: a.redone, RestartXfer: a.restartXfer,
		Rebuilds: a.rebuilds, RebuildSteps: a.rebuildSteps, RebuildXfer: a.rebuildXfer,
		Checkpoints: a.checkpoints,
		Drive:       fmt.Sprint(p.drive),
	}
}

// runBench runs one workload end to end and returns its metrics.  Human
// readable lines (environment, sample counts, driver share) go to log.
func runBench(o options, log io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	// The engine runs one worker and the client is one goroutine, so a
	// second P would run only the collector's background work — and on a
	// VM whose second vCPU the hypervisor took away, a client waiting on
	// that work lost wall time without using CPU (tx_p99_us doubled,
	// tx_per_s fell a sixth, CPU per transaction unchanged).  On one P
	// the collection runs in the client's own time.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// At the default GOGC a collection cycle starts every few dozen
	// transactions on steal-uniform, so the 1% tail measured how fast the
	// collector ran beside other processes rather than the engine; a
	// fourfold target keeps the tail on engine work.  Collection cost
	// still counts in cpu_us_per_tx and alloc.gc_per_ktx.
	defer debug.SetGCPercent(debug.SetGCPercent(gcPercent))
	printEnv(log, o)
	cal, err := newCalibration()
	if err != nil {
		return nil, err
	}
	defer cal.free()
	calBefore := cal.measure()

	// Set-up: trace generation, Open and the warm-up pass, several
	// times; the last engine is the one measured.  Each set-up is scaled
	// by the calibration taken right after it.
	var b *bench
	setupRaw := make([]float64, 0, o.setups)
	setupScaled := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		b = nil
		runtime.GC()
		t0 := time.Now()
		nb, err := setup(w, o.seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := float64(time.Since(t0))
		setupRaw = append(setupRaw, d)
		setupScaled = append(setupScaled, d*calRef/cal.measure())
		b = nb
	}
	runtime.GC()

	// Measured passes.  A traced run alternates untraced and traced
	// passes so the tracing overhead is measured on the same engine.
	// Throughput, latency and CPU are taken per pass, scaled by the
	// calibration sampled during the pass, and reported as the median
	// over passes, so neither a disturbance that slows one pass nor a
	// machine that runs slower for seconds at a time moves the run's
	// figure.  The unscaled medians are printed beside them.
	var (
		first, untraced, traced accum
		untracedWall            time.Duration
		perPass, tracedPerPass  passFigures
		rawPass                 passFigures
		spans                   *spanLog
		ms0, ms1                runtime.MemStats
		allocBytes, allocObjs   uint64
		gcs                     uint32
		calPass                 []float64
		rebuilds                accum // single-parity workloads' quiesced rebuilds
	)
	if o.trace {
		if spans, err = newSpanLog(); err != nil {
			return nil, err
		}
		defer spans.free()
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	need := int64(o.minSamples)
	if need == 0 {
		need = minSamples
	}
	b.cal = cal
	start := time.Now()
	passes := 0
	for ; ; passes++ {
		restarts := untraced.restarts + traced.restarts
		rebuilt := untraced.rebuilds + traced.rebuilds + rebuilds.rebuilds
		if passes > 0 && time.Since(start) >= budget &&
			restarts >= need && rebuilt >= need &&
			(!o.trace || traced.committed > 0) {
			break
		}
		isTraced := o.trace && passes%2 == 1
		b.spans = nil
		if isTraced {
			b.spans = spans
		}
		acc := &accum{}
		if !isTraced {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		if err := b.pass(acc); err != nil {
			return nil, fmt.Errorf("pass %d: %w", passes, err)
		}
		wall := time.Since(t0)
		// Single-parity workloads price a rebuild between passes, so
		// their samples spread over the whole run.
		rb := &accum{}
		if w.quiescedRebuild {
			b.spans = spans
			if err := b.quiescedRebuild(rb); err != nil {
				return nil, fmt.Errorf("rebuild after pass %d: %w", passes, err)
			}
			rebuilds.add(rb)
		}
		c := cal.take()
		calPass = append(calPass, c)
		scale := calRef / c
		perPass.addEvents(acc, rb, scale)
		rawPass.addEvents(acc, rb, 1)
		if isTraced {
			tracedPerPass.add(acc, scale)
			traced.add(acc)
			continue
		}
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		allocObjs += ms1.Mallocs - ms0.Mallocs
		gcs += ms1.NumGC - ms0.NumGC
		untracedWall += wall
		if passes == 0 {
			first = *acc
		}
		perPass.add(acc, scale)
		rawPass.add(acc, 1)
		untraced.add(acc)
	}
	b.spans = nil
	b.cal = nil
	calAfter := cal.measure()

	violations, err := b.oracle(log)
	if err != nil {
		return nil, err
	}

	all := accum{}
	all.add(&untraced)
	all.add(&traced)
	all.add(&rebuilds)
	res := &result{
		attempted: untraced.attempted + traced.attempted,
		failed:    untraced.failed + traced.failed + int64(len(violations)),
		counts:    countsOf(&first),
	}
	res.correct = len(violations) == 0 && res.failed == 0

	commits := float64(untraced.committed)
	driverShare := 100 * float64(untracedWall-untraced.engine-untraced.other-untraced.untimed) / float64(untracedWall)
	fmt.Fprintf(log, "# passes: %d (%d untraced commits in %s wall, %d traced commits)\n",
		passes, untraced.committed, untracedWall.Round(time.Millisecond), traced.committed)
	fmt.Fprintf(log, "# samples: tx=%d (medians over %d passes) restarts=%d rebuilds=%d checkpoints=%d\n",
		len(untraced.txLat), len(perPass.tps), all.restarts, all.rebuilds, all.checkpoints)
	fmt.Fprintf(log, "# driver share of replay wall time: %.2f%% (engine %.1f%%, restarts/rebuilds %.1f%%, untimed checks and collector waits %.1f%%)\n",
		driverShare, pct(untraced.engine, untracedWall), pct(untraced.other, untracedWall), pct(untraced.untimed, untracedWall))
	fmt.Fprintf(log, "# collections in untraced passes: %d (%.1f per 1000 commits), none forced, their CPU counted in cpu_us_per_tx\n",
		gcs, 1000*float64(gcs)/commits)
	fmt.Fprintf(log, "# first-pass counts: %+v\n", res.counts)
	reportCalibration(log, calBefore, calAfter, calPass)
	fmt.Fprintf(log, "# unscaled medians: tx_per_s %.1f, tx_p50_us %.3f, tx_p99_us %.3f, cpu_us_per_tx %.3f, recover_ms %.4f, rebuild_ms %.4f, setup_s %.4f\n",
		median(rawPass.tps), median(rawPass.p50), median(rawPass.p99), median(rawPass.cpu),
		median(rawPass.recover)/1e6, median(rawPass.rebuild)/1e6, median(setupRaw)/1e9)

	if !o.trace {
		res.set("tx_per_s", "tx/s", median(perPass.tps))
		res.set("tx_p50_us", "us", median(perPass.p50))
		res.set("tx_p99_us", "us", median(perPass.p99))
		res.set("cpu_us_per_tx", "us", median(perPass.cpu))
		res.set("xfer_per_tx", "xfer/tx", float64(first.path.transfers())/float64(first.committed))
		res.set("tx_ok_ratio", "ratio", float64(res.attempted-res.failed)/float64(res.attempted))
		res.set("recover_ms", "ms", median(perPass.recover)/1e6)
		res.set("rebuild_ms", "ms", median(perPass.rebuild)/1e6)
		res.set("heap_live_mb", "MB", heapLiveMB(b))
		res.set("setup_s", "s", median(setupScaled)/1e9)
	} else {
		layerMetrics(res, b, &first, &untraced, &traced, &all, spans)
		res.set("trace.overhead_pct", "%", 100*(median(perPass.tps)/median(tracedPerPass.tps)-1))
		res.set("alloc.kb_per_tx", "KB", float64(allocBytes)/1024/commits)
		res.set("alloc.objs_per_tx", "count", float64(allocObjs)/commits)
		res.set("alloc.gc_per_ktx", "count", 1000*float64(gcs)/commits)
		res.set("driver.share_pct", "%", driverShare)
		probeMetrics(res, b)
		if err := spans.write(o.spansOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(log, "# %d spans written to %s (%d not recorded: log full)\n", len(spans.spans), o.spansOut, spans.dropped)
	}
	for _, n := range res.names {
		m := res.metrics[n]
		fmt.Fprintf(log, "%-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
	return res, nil
}

// layerMetrics fills the traced run's per-layer metrics.  Exact counts
// come from the first (untraced) pass; span latencies from the traced
// passes.
func layerMetrics(res *result, b *bench, first, untraced, traced, all *accum, spans *spanLog) {
	c := float64(first.committed)
	p := &first.path
	us := func(k spanKind, q float64) float64 { return quantile(spans.durations(k), q) / 1e3 }
	res.set("rda.read_p50_us", "us", us(spanRead, 0.5))
	res.set("rda.read_p99_us", "us", us(spanRead, 0.99))
	res.set("rda.write_p50_us", "us", us(spanWrite, 0.5))
	res.set("rda.commit_p50_us", "us", us(spanCommit, 0.5))
	res.set("rda.commit_p99_us", "us", us(spanCommit, 0.99))
	res.set("rda.abort_p50_us", "us", us(spanAbort, 0.5))
	res.set("rda.checkpoint_ms", "ms", us(spanCheckpoint, 0.5)/1e3)
	res.set("rda.rebuild_step_p99_us", "us", us(spanRebuildStep, 0.99))

	res.set("buffer.hit_ratio", "ratio", ratio(p.hits, p.hits+p.misses))
	res.set("buffer.steals_per_tx", "count", float64(p.steals)/c)

	res.set("wal.log_xfer_per_tx", "xfer/tx", float64(p.logWrites+p.logReads)/c)
	res.set("wal.log_bytes_per_tx", "B", float64(p.logBytes)/c)
	res.set("wal.records_per_tx", "count", float64(p.logRecords)/c)

	res.set("disk.reads_per_tx", "xfer/tx", float64(p.reads)/c)
	res.set("disk.writes_per_tx", "xfer/tx", float64(p.writes)/c)
	var maxDrive, sum int64
	for _, d := range p.drive {
		sum += d
		if d > maxDrive {
			maxDrive = d
		}
	}
	res.set("diskarray.drive_skew", "ratio", float64(maxDrive)*float64(len(p.drive))/float64(sum))

	res.set("core.degraded_reads_per_tx", "count", float64(p.degReads)/c)
	res.set("core.degraded_writes_per_tx", "count", float64(p.degWrites)/c)
	res.set("core.read_repairs", "count", float64(untraced.path.readRepairs+traced.path.readRepairs))
	res.set("page.corrupt_detected", "count", float64(untraced.path.corrupt+traced.path.corrupt))

	r := float64(first.restarts)
	res.set("recovery.losers_per_restart", "count", float64(first.losers)/r)
	res.set("recovery.undo_parity_per_restart", "count", float64(first.undoParity)/r)
	res.set("recovery.undo_log_per_restart", "count", float64(first.undoLog)/r)
	res.set("recovery.redone_per_restart", "count", float64(first.redone)/r)
	res.set("recovery.xfer_per_restart", "xfer", float64(first.restartXfer)/r)

	rb := first
	if b.w.pq == nil {
		rb = all // the quiesced rebuilds run between the passes
	}
	res.set("rebuild.xfer_per_group", "xfer", ratio(rb.rebuildXfer, rb.rebuiltGroups))
	res.set("rebuild.steps_per_rebuild", "count", ratio(rb.rebuildSteps, rb.rebuilds))

}

// passFigures holds one figure per pass — throughput over engine time,
// service-time percentiles in µs, transaction-path CPU per commit — and
// the restart and rebuild times of every pass, in ns.  Every time is
// multiplied by the pass's scale (rates divided by it): calRef over the
// pass's calibration, or 1 for the unscaled figures.
type passFigures struct {
	tps, p50, p99, cpu []float64
	recover, rebuild   []float64
}

func (f *passFigures) add(a *accum, scale float64) {
	c := float64(a.committed)
	f.tps = append(f.tps, c/a.engine.Seconds()/scale)
	f.p50 = append(f.p50, quantile(a.txLat, 0.50)/1e3*scale)
	f.p99 = append(f.p99, quantile(a.txLat, 0.99)/1e3*scale)
	f.cpu = append(f.cpu, float64(a.path.cpu.Nanoseconds())/1e3/c*scale)
}

// addEvents adds the restarts and rebuilds of a pass and of the
// quiesced rebuild that followed it.
func (f *passFigures) addEvents(pass, quiesced *accum, scale float64) {
	for _, a := range []*accum{pass, quiesced} {
		for _, d := range a.recover {
			f.recover = append(f.recover, float64(d)*scale)
		}
		for _, d := range a.rebuild {
			f.rebuild = append(f.rebuild, float64(d)*scale)
		}
	}
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func pct(a, b time.Duration) float64 { return 100 * float64(a) / float64(b) }

// quantile returns the q-quantile (nearest rank) of the samples, 0 when
// there are none.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i])
}

// cpuTime returns the process's user plus system CPU time, all threads.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// offHeap maps n bytes of zeroed anonymous memory outside the Go heap.
// The collector neither scans it nor counts it toward its goal, so the
// benchmark's own large buffers — the calibration region and the span
// log — do not change how often the engine's garbage is collected (an
// earlier 32 MiB calibration region on the heap cut pq-degraded's collections
// fivefold).  Pages become resident only when touched.
func offHeap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
}

// heapLiveMB is HeapAlloc after a forced collection, with the engine
// kept alive.
func heapLiveMB(b *bench) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(b)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// printEnv records what the numbers were taken on and how to take them
// again.
func printEnv(log io.Writer, o options) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+dirty"
			}
		}
	}
	traced := 0
	if o.trace {
		traced = 1
	}
	fmt.Fprintf(log, "# enginebench workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, traced)
	fmt.Fprintf(log, "# go=%s GOMAXPROCS=%d GOGC=%d nproc=%d os/arch=%s/%s commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), gcPercent, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, commit)
	args := []string{
		"--workload", o.workload, "--seed", fmt.Sprint(o.seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(traced),
	}
	fmt.Fprintf(log, "# regenerate: bash enginebench/run.sh %s\n", strings.Join(args, " "))
}
