package explore

import (
	"fmt"
	"strings"

	"swishmem/internal/experiments"
)

// Failure is one failing seed from a sweep, with its shrunk counterexample.
type Failure struct {
	Seed   int64
	Opt    RunOptions
	Result *Result // the original failing run
	Shrunk Scenario
	Minned *Result // the shrunk scenario's failing run
	// ShrinkUndecided counts shrink variants set aside because the
	// linearizability checker ran out of budget on them: the counterexample
	// may be less minimal than one more search would have made it.
	ShrinkUndecided int
	// BlackBox is the flight record of the failing run (see Investigate).
	BlackBox string
}

// ReplayCommand is the one-liner that reproduces the original failure.
func (f *Failure) ReplayCommand() string {
	cmd := fmt.Sprintf("go test -run 'TestExplore$' -explore.seed=%d", f.Seed)
	if f.Opt.InjectSkipForward > 0 {
		cmd += fmt.Sprintf(" -explore.inject=%d", f.Opt.InjectSkipForward)
	}
	if f.Opt.Retransmit {
		cmd += " -explore.backend=retransmit"
	}
	if f.Opt.InjectDisableRetransmit {
		cmd += " -explore.inject-disable-retransmit"
	}
	if f.Opt.Faults == FaultsExtended {
		cmd += " -explore.faults=extended"
	}
	return cmd
}

// Report renders the failure for humans: what broke, how to replay it, and
// the minimized scenario.
func (f *Failure) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d failed %d oracle(s); first: %s\n", f.Seed, len(f.Result.Failures), f.Result.Failures[0])
	fmt.Fprintf(&b, "replay: %s\n", f.ReplayCommand())
	if f.ShrinkUndecided > 0 {
		fmt.Fprintf(&b, "shrink: %d variant(s) undecided by the checker, treated as not reproducing\n", f.ShrinkUndecided)
	}
	b.WriteString("shrunk counterexample:\n")
	b.WriteString(indent(f.Minned.Log))
	if f.BlackBox != "" {
		b.WriteString(indent(f.BlackBox))
	}
	return b.String()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// SweepResult summarizes a seed sweep. Undecided and ShrinkUndecided count
// what the checker's budget cost it: seeds whose own run it could not decide
// (they are among Failures — undecided is never green) and shrink variants
// set aside for the same reason.
type SweepResult struct {
	Base            int64
	N               int
	Failures        []*Failure
	Undecided       int
	ShrinkUndecided int
}

// Investigate turns a failing run into its report: the shrunk counterexample
// and the flight record of the failing run (last trace events, final metrics
// snapshot, timeline tail), captured by re-running the scenario with the
// recorder armed — determinism makes the rerun reproduce the failure exactly.
func Investigate(seed int64, sc Scenario, opt RunOptions, r *Result) *Failure {
	f := &Failure{Seed: seed, Opt: opt, Result: r}
	f.Shrunk, f.Minned, f.ShrinkUndecided = Shrink(sc, opt, r)
	// The armed run is guaranteed byte-identical in Log/Failures, so the
	// recorder captures exactly the failure the caller saw; the guard
	// documents the invariant rather than trusting it silently.
	opt.BlackBox = true
	if rerun := Run(sc, opt); rerun.Log == r.Log {
		f.BlackBox = rerun.BlackBox
	} else {
		f.BlackBox = "flight recorder: armed rerun diverged from the original run (instrumentation is supposed to be passive — investigate)\n"
	}
	return f
}

// Sweep generates and runs n scenarios for seeds base..base+n-1 on up to
// workers goroutines. Each failing seed is shrunk (within its worker) to a
// minimal counterexample. Scenario runs are fully independent — each builds
// its own engine — so results are identical for any worker count; failures
// come back in ascending seed order.
func Sweep(base int64, n, workers int, opt RunOptions) SweepResult {
	results := make([]*Failure, n)
	experiments.ParallelFor(n, workers, func(i int) {
		seed := base + int64(i)
		sc := GenerateWith(seed, opt.Faults)
		if r := Run(sc, opt); r.Failed() {
			results[i] = Investigate(seed, sc, opt, r)
		}
	})
	sr := SweepResult{Base: base, N: n}
	for _, f := range results {
		if f != nil {
			sr.Failures = append(sr.Failures, f)
			sr.ShrinkUndecided += f.ShrinkUndecided
			if f.Result.FirstOracle() == OracleUndecided {
				sr.Undecided++
			}
		}
	}
	return sr
}
