// Command bench is the repository benchmark: four closed-loop workloads over
// the live UDP cluster and the deterministic simulator, end-to-end metrics
// as medians across one-second windows (p99: their lower quartile), and a
// traced mode that reports per-layer metrics. README.md has the tables;
// BENCHMARK.json (repo root) has the bounds.
//
//	bench --workload live-sro-write --seed 1 --seconds 25 --trace 0
//	bench trace -workload live-nf-mix          # per-layer table + Chrome trace
//	bench check                                # two interleaved sets, same binary
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

var processStart = time.Now()

type config struct {
	workload  string
	seed      int64
	duration  time.Duration
	trace     bool
	quick     bool   // tiny warm-ups and probes, one set-up: the smoke test
	setupReps int    // set-ups per run; setup_s is their median
	out       string // directory trace files go to
}

// scale shrinks a fixed count in quick mode.
func (c config) scale(n int) int {
	if c.quick {
		return max(n/20, 1)
	}
	return n
}

func main() {
	args := os.Args[1:]
	traceDefault, secondsDefault := 0, 25
	if len(args) > 0 {
		switch args[0] {
		case "check":
			os.Exit(runCheck(args[1:]))
		case "trace":
			// Three 10 s stretches: untraced, traced, burst probe.
			traceDefault, secondsDefault, args = 1, 30, args[1:]
		}
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "one of "+fmt.Sprint(workloads))
		seed     = fs.Int64("seed", 1, "input seed: same seed, same inputs")
		seconds  = fs.Int("seconds", secondsDefault, "measured seconds")
		trace    = fs.Int("trace", traceDefault, "1: traced run reporting the per-layer metrics")
		quick    = fs.Bool("quick", false, "smoke-test sizes (numbers are not comparable)")
		out      = fs.String("out", "", "directory for trace files (default <repo>/.bench_build)")
	)
	fs.Parse(args)
	cfg := config{workload: *workload, seed: *seed, duration: time.Duration(*seconds) * time.Second,
		trace: *trace != 0, quick: *quick, setupReps: 3, out: *out}
	if cfg.quick {
		cfg.setupReps = 2
	}
	// The harness must end well inside the driver's 180 s, result or not.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded 170 s, giving up")
		os.Exit(3)
	})
	r, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	r.writeTable(os.Stderr)
	if err := r.writeJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run executes one workload and returns its result: the end-to-end metrics
// untraced, or the per-layer metrics from a traced run.
func run(cfg config) (*result, error) {
	if cfg.duration <= 0 {
		return nil, fmt.Errorf("need a positive measured time")
	}
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog(64)
	}
	var (
		r   *result
		err error
	)
	switch cfg.workload {
	case wlSRO, wlEWO, wlMix:
		r, err = runLive(cfg, spans)
	case wlSim:
		if spans != nil {
			spans.every = 1 // a span per chunk, not per packet
		}
		r, err = runSim(cfg, spans)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	r.finish()
	if !cfg.trace {
		return r, nil
	}
	if err := runProbes(r, cfg); err != nil {
		return nil, err
	}
	r.fillLayers()
	dir, err := outDir(cfg.out)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "trace-"+cfg.workload+".json")
	if err := spans.writeChrome(path); err != nil {
		return nil, err
	}
	r.setLayer("trace.spans", float64(len(spans.spans)))
	r.notef("Chrome trace: %s (%d spans)", path, len(spans.spans))
	return r, nil
}

// genOps builds a live workload's op ring and loop shape.
func genOps(workload string, seed int64) (ops []op, window, burst, warm int, err error) {
	switch workload {
	case wlSRO:
		return genSRO(seed), sroWindow, 1, sroWarmOps, nil
	case wlEWO:
		return genEWO(seed), ewoWindow, ewoBurst, ewoWarmOps, nil
	default:
		ops, err = genMix(seed)
		return ops, mixWindow, 1, mixWarmOps, err
	}
}

func runLive(cfg config, spans *spanLog) (*result, error) {
	r := &result{Correct: true}
	var (
		c      *cluster
		l      *loop
		setups []float64
	)
	// Set-up, repeated so setup_s is a median: generate the inputs, build
	// the cluster, bootstrap through the controller, run the warm-up ops.
	for rep := 0; rep < cfg.setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = processStart
		}
		ops, window, burst, warm, err := genOps(cfg.workload, cfg.seed)
		if err != nil {
			return nil, err
		}
		if c, err = newCluster(cfg.seed, retryTimeout); err != nil {
			return nil, err
		}
		l = newLoop(c, ops, window, burst)
		l.warm(uint64(cfg.scale(warm)))
		setups = append(setups, time.Since(t0).Seconds())
		if rep < cfg.setupReps-1 {
			l.drain(drainTimeout)
			c.stop()
		}
	}
	defer c.stop()

	// A traced run alternates traced and untraced windows over two thirds
	// of the budget; the burst probe (runProbes) takes the last third.
	budget := cfg.duration
	if cfg.trace {
		budget = budget / 3 * 2
	}
	pt := l.measure(budget, spans)
	l.drain(drainTimeout)
	r.Attempted, r.Failed = l.issued, l.failed
	if l.failed > 0 {
		r.notef("%d ops failed: %d never completed, the rest are writes whose commit callback said false",
			l.failed, l.lost)
	}
	converge := l.verify(r)
	if !cfg.trace {
		setEndToEnd(r, setups, pt.rec.ws, pt.ops, pt.cpu, pt.yard)
		return r, nil
	}

	dc, ops := pt.counter, float64(pt.ops)
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rec := pt.rec
	r.setLayer("live.post_wait_p50_us", rec.postWait.quantile(0.5)/1e3)
	r.setLayer("live.post_wait_p99_us", rec.postWait.quantile(0.99)/1e3)
	r.setLayer("live.msgs_per_datagram", ratio(dc[cEgressMsgs], dc[cDatagramsSent]))
	r.setLayer("live.datagrams_per_op", float64(dc[cDatagramsSent])/ops)
	r.setLayer("live.wire_bytes_per_op", float64(dc[cBytesSent])/ops)
	r.setLayer("live.pump_rounds_per_op", float64(dc[cPumpRounds])/ops)
	r.setLayer("live.rx_loss_frac", 1-ratio(dc[cDatagramsRecv], dc[cDatagramsSent]))
	r.setLayer("live.decode_err", float64(dc[cDecodeErr]))
	r.setLayer("live.datagrams", float64(dc[cDatagramsSent]))
	r.setLayer("chain.submit_p50_ns", rec.submit.quantile(0.5))
	r.setLayer("ewo.add_call_p50_ns", rec.addCall.quantile(0.5))
	r.setLayer("chain.commit_wait_p50_us", rec.commitWait.quantile(0.5)/1e3)
	r.setLayer("chain.msgs_per_write", ratio(dc[cEgressMsgs], dc[cWritesCommitted]))
	r.setLayer("chain.retries_per_op", ratio(dc[cRetries], dc[cWritesSubmitted]))
	r.setLayer("chain.writes_committed", float64(dc[cWritesCommitted]))
	r.setLayer("chain.reads_local", float64(dc[cReadsLocal]))
	r.setLayer("chain.writes_failed", float64(dc[cWritesFailed]))
	r.setLayer("chain.reads_lost", float64(l.lost))
	r.setLayer("chain.reads_forwarded_frac", ratio(dc[cReadsForwarded], dc[cReadsLocal]+dc[cReadsForwarded]))
	r.setLayer("chain.write_p50_us", rec.writeLat.quantile(0.5)/1e3)
	r.setLayer("chain.read_p50_us", rec.readLat.quantile(0.5)/1e3)
	r.setLayer("ewo.writes", float64(dc[cEWOWrites]))
	r.setLayer("ewo.updates_per_add", ratio(dc[cUpdatesSent], dc[cEWOWrites]))
	r.setLayer("ewo.update_delivery_frac",
		ratio(dc[cUpdatesRecv], dc[cUpdatesSent]*(members-1)+dc[cSyncPackets]))
	r.setLayer("ewo.entries_stale_frac", ratio(dc[cEntriesStale], dc[cEntriesStale]+dc[cEntriesMerged]))
	r.setLayer("ewo.sync_bytes_per_s", float64(dc[cSyncBytes])/pt.wall.Seconds())
	r.setLayer("ewo.converge_ms", converge.Seconds()*1e3)
	r.setLayer("gen.done_wait_p50_us", rec.doneWait.quantile(0.5)/1e3)
	r.setLayer("controller.bootstrap_ms", c.bootstrap.Seconds()*1e3)
	r.setLayer("pisa.sram_bytes_per_member", float64(c.members[0].Switch.MemoryUsed()))
	r.setLayer("obs.snapshot_ms", obsSnapshot(c).Seconds()*1e3)
	r.setLayer("host.yardstick_ns", median(pt.yard.samples))
	setTraceOverhead(r, rec.ws)
	setRuntime(r, pt.mem, pt.ops)
	return r, nil
}

// setEndToEnd fills the five end-to-end metrics, scaled from this run's
// yardstick reading to the nominal one (yardstick.go).
func setEndToEnd(r *result, setups []float64, ws *windows, ops uint64, cpu time.Duration, yard *yardstick) {
	rate, p50, p99, minSamples := ws.medians(allWindows)
	setup, cpuPerOp, k := median(setups), cpu.Seconds()*1e6/float64(ops), yard.scale()
	r.set("setup_s", setup*k, "s")
	r.set("ops_per_s", rate/k, "1/s")
	r.set("op_p50_us", p50/1e3*k, "us")
	r.set("op_p99_us", p99/1e3*k, "us")
	r.set("cpu_us_per_op", cpuPerOp*k, "us")
	r.notef("as measured, at this run's %.1f ns yardstick (times above are x %.4f, the rate / %.4f): "+
		"setup %.4f s, %.0f ops/s, p50 %.2f us, p99 %.2f us, %.4f us CPU/op",
		median(yard.samples), k, k, setup, rate, p50/1e3, p99/1e3, cpuPerOp)
	r.notef("medians (p99: lower quartile) over %d one-second windows, >= %d latency samples in each; %d set-ups %.3v s",
		len(ws.w)-1, minSamples, len(setups), setups)
	perWindow := make([]uint64, len(ws.w))
	for i := range ws.w {
		perWindow[i] = ws.w[i].ops
	}
	r.notef("ops per window (first dropped): %v", perWindow)
}

// setTraceOverhead compares the interleaved traced and untraced windows.
func setTraceOverhead(r *result, ws *windows) {
	untraced, _, _, _ := ws.medians(func(i int) bool { return !tracedWindow(i) })
	traced, _, _, _ := ws.medians(tracedWindow)
	r.setLayer("trace.ops_per_s_untraced", untraced)
	r.setLayer("trace.ops_per_s_traced", traced)
	r.setLayer("trace.overhead_frac", 1-traced/untraced)
}

func setRuntime(r *result, m memStats, ops uint64) {
	r.setLayer("go.allocs_per_op", float64(m.mallocs)/float64(ops))
	r.setLayer("go.alloc_bytes_per_op", float64(m.bytes)/float64(ops))
	r.setLayer("go.gc_cycles", float64(m.gcs))
	r.setLayer("go.gc_pause_total_ms", float64(m.pauseNs)/1e6)
	r.setLayer("go.peak_rss_mb", float64(usage().Maxrss)/1024) // Maxrss is in KB
}

// usage reads the process's resource usage so far.
func usage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	ru := usage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memStats is what the runtime has allocated and collected so far, or
// between two readings.
type memStats struct {
	mallocs, bytes, pauseNs uint64
	gcs                     uint32
}

func readMem() memStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memStats{ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.NumGC}
}

func (a memStats) since(b memStats) memStats {
	return memStats{a.mallocs - b.mallocs, a.bytes - b.bytes, a.pauseNs - b.pauseNs, a.gcs - b.gcs}
}

// repoRoot is the directory holding BENCHMARK.json: this one (run.sh starts
// the binary there) or the parent (go run / go test from bench/).
func repoRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return ".."
	}
	return "."
}

// outDir resolves where trace files go: the given directory, or .bench_build
// in the repo root.
func outDir(dir string) (string, error) {
	if dir == "" {
		dir = filepath.Join(repoRoot(), ".bench_build")
	}
	return dir, os.MkdirAll(dir, 0o755)
}
