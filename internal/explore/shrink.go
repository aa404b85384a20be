package explore

import (
	"time"

	"swishmem"
)

// maxShrinkRuns bounds the total scenario re-executions one Shrink may
// spend; greedy shrinking converges long before this in practice.
const maxShrinkRuns = 120

// Shrink minimizes a failing scenario: it greedily tries simpler variants —
// dropping fault episodes, shortening the workload, reducing the cluster,
// cleaning the link — and keeps a variant only if it still fails the SAME
// oracle as the original (so the minimized scenario demonstrates the
// original defect, not a new one). A variant whose history the
// linearizability checker cannot decide fails under OracleUndecided, a name
// no violation carries, so it never counts as a reproduction; undecided
// reports how many variants were set aside that way. A run that is itself
// undecided is not shrunk: there is no defect to preserve. It returns the
// smallest scenario found and its result. The input must be a failing run.
func Shrink(sc Scenario, opt RunOptions, res *Result) (_ Scenario, _ *Result, undecided int) {
	oracle := res.FirstOracle()
	if oracle == "" || oracle == OracleUndecided {
		return sc, res, 0
	}
	runs := 0
	try := func(cand Scenario) *Result {
		if runs >= maxShrinkRuns {
			return nil
		}
		runs++
		r := Run(cand.Normalize(), opt)
		if r.FirstOracle() == oracle {
			return r
		}
		if r.FirstOracle() == OracleUndecided {
			undecided++
		}
		return nil
	}

	improved := true
	for improved && runs < maxShrinkRuns {
		improved = false
		for _, cand := range candidates(sc) {
			if r := try(cand); r != nil {
				sc, res = r.Scenario, r
				improved = true
				break // restart from the new, smaller scenario
			}
		}
	}
	return sc, res, undecided
}

// candidates proposes strictly simpler variants of sc, most aggressive
// first. Order is deterministic, which keeps shrinking replayable.
func candidates(sc Scenario) []Scenario {
	var out []Scenario

	// Drop each fault episode.
	for i := range sc.Episodes {
		c := sc
		c.Episodes = append(append([]Episode(nil), sc.Episodes[:i]...), sc.Episodes[i+1:]...)
		out = append(out, c)
	}
	// Shorten the workload.
	if sc.Steps > 10 {
		c := sc
		c.Steps = sc.Steps / 2
		out = append(out, c)
		c = sc
		c.Steps = sc.Steps * 3 / 4
		out = append(out, c)
	}
	// Shrink the key space (fewer, hotter keys).
	if sc.Keys > 1 {
		c := sc
		c.Keys = sc.Keys / 2
		if c.Keys < 1 {
			c.Keys = 1
		}
		out = append(out, c)
	}
	// Remove a replica (Normalize drops episodes that reference it).
	if sc.Switches > 2 {
		c := sc
		c.Switches = sc.Switches - 1
		out = append(out, c)
	}
	// Remove the spares (Normalize drops join episodes).
	if sc.Spares > 0 {
		c := sc
		c.Spares = 0
		out = append(out, c)
	}
	// Clean the link, one nuisance at a time.
	if sc.Link.Jitter > 0 {
		c := sc
		c.Link.Jitter = 0
		out = append(out, c)
	}
	if sc.Link.LossRate > 0 || sc.Link.DupRate > 0 || sc.Link.ReorderRate > 0 {
		c := sc
		c.Link = swishmem.LinkProfile{Latency: sc.Link.Latency, BandwidthBps: sc.Link.BandwidthBps}
		out = append(out, c)
	}
	// Widen the op gap to a round number (less concurrency).
	if sc.OpGap != 50*time.Microsecond {
		c := sc
		c.OpGap = 50 * time.Microsecond
		out = append(out, c)
	}
	return out
}
