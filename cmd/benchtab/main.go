// benchtab regenerates the paper's tables and quantitative claims (the
// experiment index E1–E19 in DESIGN.md) and prints paper-style rows.
//
// Usage:
//
//	benchtab                  # run every experiment
//	benchtab -e E3            # one experiment by ID
//	benchtab -e table1        # or by name
//	benchtab -list            # list experiments
//	benchtab -seed 7          # change the deterministic seed
//	benchtab -parallel 4      # run experiments on 4 workers
//	benchtab -shards 4        # shard every cluster's simulation across 4 engines
//	benchtab -e E4 -trace out.json   # virtual-time trace, loadable at ui.perfetto.dev
//	benchtab -metrics metrics.txt    # batch counters + per-experiment metric sections
//	benchtab -cpuprofile cpu.pb.gz -memprofile mem.pb.gz -mutexprofile mtx.pb.gz
//
// -parallel and -shards are orthogonal: -parallel runs whole experiments on
// concurrent workers, -shards splits each experiment's simulated switches
// across engines (deterministically — sharded rows are byte-identical to
// sequential ones). The profile flags cover the experiment batch.
//
// Regenerated rows go to stdout; wall-time diagnostics go to stderr. Every
// experiment builds its own deterministic simulation, so the stdout rows are
// byte-identical whatever -parallel is — parallelism only changes how long
// the run takes.
//
// benchtab measures no performance: the repo benchmark is `bash bench/run.sh`
// (BENCHMARK.json), and `make bench` runs the hot-path microbenchmarks under
// `go test -bench`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"swishmem/internal/experiments"
	"swishmem/internal/obs"
)

func main() {
	var (
		exp      = flag.String("e", "", "experiment ID (E1..E19) or name; empty = all")
		seed     = flag.Int64("seed", 1, "deterministic seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		parallel = flag.Int("parallel", 1, "number of concurrent experiment workers")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (requires -e; forces -parallel 1)")
		metout   = flag.String("metrics", "", "write a plain-text metrics dump (batch counters + per-experiment sections) to this file")
		shards   = flag.Int("shards", 0, "shard every experiment cluster across N engines (0 = sequential; rows are byte-identical either way)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiment batch to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the batch) to this file")
		mtxProf  = flag.String("mutexprofile", "", "write a mutex-contention profile of the batch to this file")
	)
	flag.Parse()

	var tracers []*obs.Tracer
	if *traceOut != "" {
		if *exp == "" {
			fmt.Fprintln(os.Stderr, "-trace requires -e (trace one experiment, not the whole batch)")
			os.Exit(2)
		}
		// The tracer sink appends without locking; tracing forces a
		// sequential run. It also forces sequential simulation: the sink
		// receives one tracer per cluster, which in sharded mode would be
		// shard 0's ring only.
		*parallel = 1
		*shards = 0
		experiments.SetTracing(1<<18, func(tr *obs.Tracer) { tracers = append(tracers, tr) })
	}

	if *list {
		fmt.Println("ID    NAME                PAPER CONTENT")
		for _, e := range experiments.All() {
			fmt.Printf("%-5s %-19s %s\n", e.ID, e.Name, e.Paper)
		}
		return
	}

	run := experiments.All()
	if *exp != "" {
		e, ok := experiments.Find(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", *exp)
			os.Exit(2)
		}
		run = []experiments.Experiment{e}
	}

	if *shards != 0 {
		experiments.SetShards(*shards)
		defer experiments.SetShards(0)
	}
	if *mtxProf != "" {
		runtime.SetMutexProfileFraction(5)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *cpuProf, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	var bm experiments.BatchMetrics
	reports := experiments.RunMetered(run, *seed, *parallel, &bm)
	batchWall := time.Since(start)

	if *cpuProf != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "wrote %s\n", *cpuProf)
	}
	if *memProf != "" {
		if err := writeProfile(*memProf, "allocs"); err != nil {
			fmt.Fprintf(os.Stderr, "write heap profile: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *memProf)
	}
	if *mtxProf != "" {
		if err := writeProfile(*mtxProf, "mutex"); err != nil {
			fmt.Fprintf(os.Stderr, "write mutex profile: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *mtxProf)
	}

	for _, r := range reports {
		fmt.Print(r.Result.String())
		fmt.Println()
		fmt.Fprintf(os.Stderr, "%s finished in %v wall time\n",
			r.Experiment.ID, r.Wall.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "batch: %d experiments, %d workers, %v wall time\n",
		len(reports), *parallel, batchWall.Round(time.Millisecond))

	if *traceOut != "" {
		if err := writeTrace(*traceOut, tracers); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		total := 0
		for _, tr := range tracers {
			total += tr.Len()
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d events from %d cluster(s); open at ui.perfetto.dev)\n",
			*traceOut, total, len(tracers))
	}
	if *metout != "" {
		if err := writeMetrics(*metout, &bm, reports); err != nil {
			fmt.Fprintf(os.Stderr, "write metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metout)
	}
}

// writeProfile dumps the named runtime profile (heap/allocs after a GC,
// mutex, ...) to path in pprof format.
func writeProfile(path, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	p := pprof.Lookup(name)
	if p == nil {
		f.Close()
		return fmt.Errorf("unknown profile %q", name)
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace merges the tracers of every cluster the experiment built into
// one Chrome trace-event file (each cluster gets its own pid lane block).
func writeTrace(path string, tracers []*obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tracers...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the batch counters plus each experiment's aggregated
// metric section as aligned plain text.
func writeMetrics(path string, bm *experiments.BatchMetrics, reports []experiments.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "== batch ==\n")
	fmt.Fprintf(f, "experiments %d\n", bm.Experiments.Value())
	fmt.Fprintf(f, "tables      %d\n", bm.Tables.Value())
	fmt.Fprintf(f, "notes       %d\n", bm.Notes.Value())
	fmt.Fprintf(f, "violations  %d\n", bm.Violations.Value())
	for _, r := range reports {
		if len(r.Result.Metrics) == 0 {
			continue
		}
		fmt.Fprintf(f, "\n== %s (%s) ==\n", r.Experiment.ID, r.Experiment.Name)
		names := make([]string, 0, len(r.Result.Metrics))
		width := 0
		for name := range r.Result.Metrics {
			names = append(names, name)
			if len(name) > width {
				width = len(name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(f, "%-*s %g\n", width, name, r.Result.Metrics[name])
		}
	}
	return f.Close()
}
