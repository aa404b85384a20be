package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"swishmem/internal/stats"
)

// Report is one experiment execution in a runner batch.
type Report struct {
	Experiment Experiment
	Result     *Result
	Wall       time.Duration
}

// WriteRows writes the reports' rows as benchtab prints them to stdout: each
// result, then a blank line. internal/experiments/testdata/benchtab.golden
// holds every experiment's rows at seed 1.
func WriteRows(w io.Writer, reports []Report) {
	for _, r := range reports {
		fmt.Fprintln(w, r.Result.String())
	}
}

// BatchMetrics aggregates accounting across a runner batch. Workers update
// it concurrently, so every field is a stats.AtomicCounter (the simulation's
// own stats stay plain Counters — one engine goroutine each).
type BatchMetrics struct {
	// Experiments counts completed experiment runs.
	Experiments stats.AtomicCounter
	// Tables counts tables emitted across all results.
	Tables stats.AtomicCounter
	// Notes counts notes emitted across all results.
	Notes stats.AtomicCounter
	// Violations counts notes flagging a shape violation.
	Violations stats.AtomicCounter
}

// RunMetered executes the given experiments with the seed, using up to
// workers concurrent OS-level goroutines (values < 2 mean sequential). If m
// is non-nil each completed experiment adds its table/note counts to m from
// whichever worker ran it.
//
// Every experiment builds its own simulation engine seeded from seed and
// shares no mutable state with any other (package-level protocol state is
// read-only), so the regenerated rows are bit-identical whatever the worker
// count — parallelism buys wall time only, never different results. Reports
// come back in input order.
func RunMetered(exps []Experiment, seed int64, workers int, m *BatchMetrics) []Report {
	reports := make([]Report, len(exps))
	runOne := func(i int) {
		start := time.Now()
		res := exps[i].Run(seed)
		reports[i] = Report{Experiment: exps[i], Result: res, Wall: time.Since(start)}
		if m != nil {
			m.Experiments.Inc()
			m.Tables.Add(uint64(len(res.Tables)))
			m.Notes.Add(uint64(len(res.Notes)))
			for _, n := range res.Notes {
				if strings.Contains(n, "SHAPE VIOLATION") {
					m.Violations.Inc()
				}
			}
		}
	}
	ParallelFor(len(exps), workers, runOne)
	return reports
}

// ParallelFor runs fn(i) for every i in [0, n) on up to workers concurrent
// goroutines (values < 2 mean sequential, in index order). fn instances must
// not share mutable state except through their own synchronization; writing
// fn's result to slot i of a pre-sized slice is the intended pattern, and
// keeps output independent of the worker count. ParallelFor returns when
// every call has completed. It is the worker pool under the experiment
// runner and the explore sweeps.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers < 2 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
