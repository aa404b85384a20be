// Root-package wiring for the deterministic fault-schedule explorer
// (internal/explore). Three entry points:
//
//   - TestExploreQuick: tier-1. Sweeps a fixed batch of generated scenarios
//     on every `go test` run, plus a byte-identical-log determinism spot
//     check. Runs in seconds.
//   - TestExplore: flagged long/replay mode, skipped by default.
//     `-explore.n=5000` sweeps seeds `-explore.base..base+n-1` (the nightly
//     CI job), `-explore.seed=N` replays one seed verbosely — this is the
//     command printed by every failure report. `-explore.inject=K` re-arms
//     the injected chain bug for replaying injected-bug failures,
//     `-explore.faults=extended` generates from the extended fault set
//     (nth-loss, corruption, one-way outages, pause/resume),
//     `-explore.backend=retransmit` runs the strong register on the
//     hop-to-hop retransmit backend (with `-explore.inject-disable-retransmit`
//     re-arming its verification bug), and `-explore.artifacts=DIR` writes
//     one report file per failing seed.
//   - TestExploreCatchesInjectedBug: end-to-end self-test of the checker.
//     Arms a real protocol bug (chain head skips forwarding), requires the
//     sweep to catch it, shrink it, and print a replay command that
//     reproduces the identical failure.
//
// See TESTING.md for the full workflow.
package swishmem_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"swishmem/internal/explore"
)

var (
	exploreN      = flag.Int("explore.n", 0, "sweep this many seeds in TestExplore (0 = skip long mode)")
	exploreBase   = flag.Int64("explore.base", 1, "first seed of the TestExplore sweep")
	exploreSeed   = flag.Int64("explore.seed", 0, "replay this single seed in TestExplore (0 = off)")
	exploreInject = flag.Int("explore.inject", 0,
		"arm the injected skip-forward chain bug for this many writes (replaying injected failures)")
	exploreArtifacts = flag.String("explore.artifacts", "", "directory for per-failure report files")
	exploreFaults    = flag.String("explore.faults", "classic",
		"fault set for generated scenarios: classic (crash/partition/loss/join) or extended (+ nth-loss, corruption, one-way outage, pause/resume)")
	exploreBackend = flag.String("explore.backend", "chain",
		"replication backend for the strong register: chain (writer retry) or retransmit (hop-to-hop NACK/retransmit)")
	exploreInjectDisableRtx = flag.Bool("explore.inject-disable-retransmit", false,
		"arm the disabled-retransmit-buffer bug on every replica (replaying rtx-oracle failures)")
)

// faultSet parses -explore.faults. The flag travels in replay commands, so
// an unknown value is a hard error rather than a silent classic fallback.
func faultSet(t *testing.T) explore.FaultSet {
	switch *exploreFaults {
	case "classic":
		return explore.FaultsClassic
	case "extended":
		return explore.FaultsExtended
	default:
		t.Fatalf("unknown -explore.faults=%q (want classic or extended)", *exploreFaults)
		return explore.FaultsClassic
	}
}

// backend parses -explore.backend, with the same hard-error policy.
func backend(t *testing.T) bool {
	switch *exploreBackend {
	case "chain":
		return false
	case "retransmit":
		return true
	default:
		t.Fatalf("unknown -explore.backend=%q (want chain or retransmit)", *exploreBackend)
		return false
	}
}

// TestExploreQuick is the tier-1 face of the explorer: a few dozen generated
// scenarios — crashes, partitions, loss bursts, spare joins — each checked
// against every oracle, on every `go test` run.
func TestExploreQuick(t *testing.T) {
	const n = 30 // >= 25 scenarios, ~2s sequential, less parallel
	start := time.Now()
	sr := explore.Sweep(1, n, runtime.NumCPU(), explore.RunOptions{})
	for _, f := range sr.Failures {
		t.Errorf("%s", f.Report())
	}
	// A smaller extended batch keeps the chaos-parity kinds — nth-loss,
	// corruption, one-way outages, pause/resume — exercised on every run.
	ext := explore.Sweep(1, 20, runtime.NumCPU(), explore.RunOptions{Faults: explore.FaultsExtended})
	for _, f := range ext.Failures {
		t.Errorf("%s", f.Report())
	}
	// The retransmit backend gets its own leg so the rtx oracle and the
	// NACK/retransmit machinery run under generated faults on every `go
	// test`, not just nightly.
	rtx := explore.Sweep(1, 20, runtime.NumCPU(), explore.RunOptions{Retransmit: true})
	for _, f := range rtx.Failures {
		t.Errorf("%s", f.Report())
	}
	// Determinism contract: same seed, byte-identical run log. One strict and
	// one lossy shape.
	for _, seed := range []int64{3, 14} {
		sc := explore.Generate(seed)
		a := explore.Run(sc, explore.RunOptions{})
		b := explore.Run(sc, explore.RunOptions{})
		if a.Log != b.Log {
			t.Errorf("seed %d: two runs of one scenario produced different logs:\n%s\nvs\n%s",
				seed, a.Log, b.Log)
		}
	}
	t.Logf("swept %d scenarios (%d failures) in %s", n, len(sr.Failures), time.Since(start))
}

// TestExplore is the long/replay mode. With no explore flags it skips; the
// nightly CI job passes -explore.n, and failure reports print a
// -explore.seed replay command that lands here.
func TestExplore(t *testing.T) {
	opt := explore.RunOptions{
		InjectSkipForward:       *exploreInject,
		Faults:                  faultSet(t),
		Retransmit:              backend(t),
		InjectDisableRetransmit: *exploreInjectDisableRtx,
	}

	if *exploreSeed != 0 {
		sc := explore.GenerateWith(*exploreSeed, opt.Faults)
		t.Logf("replaying seed %d\n%s", *exploreSeed, sc.Log())
		r := explore.Run(sc, opt)
		t.Logf("run log:\n%s", r.Log)
		if !r.Failed() {
			t.Logf("seed %d passes all oracles", *exploreSeed)
			return
		}
		t.Fatalf("%s", explore.Investigate(*exploreSeed, sc, opt, r).Report())
	}

	if *exploreN <= 0 {
		t.Skip("long mode off: pass -explore.n=COUNT to sweep seeds or -explore.seed=N to replay one")
	}

	start := time.Now()
	sr := explore.Sweep(*exploreBase, *exploreN, runtime.NumCPU(), opt)
	writeArtifacts(t, sr)
	for _, f := range sr.Failures {
		t.Errorf("%s", f.Report())
	}
	t.Logf("swept seeds %d..%d in %s: %d failure(s), %d of them undecided by the checker; %d shrink variant(s) undecided",
		*exploreBase, *exploreBase+int64(*exploreN)-1, time.Since(start), len(sr.Failures), sr.Undecided, sr.ShrinkUndecided)
}

// TestExploreCatchesInjectedBug proves the oracles have teeth: with a real
// protocol bug armed (the chain head applies and acks a write without
// forwarding it down the chain), the sweep must catch it, shrink it to a
// counterexample failing the same oracle, and print a replay command that
// reproduces the identical run log from nothing but the seed.
func TestExploreCatchesInjectedBug(t *testing.T) {
	opt := explore.RunOptions{InjectSkipForward: 1}
	sr := explore.Sweep(1, 20, runtime.NumCPU(), opt)
	if len(sr.Failures) == 0 {
		t.Fatal("injected skip-forward bug escaped a 20-seed sweep")
	}
	f := sr.Failures[0]
	if !f.Minned.Failed() || f.Minned.FirstOracle() != f.Result.FirstOracle() {
		t.Fatalf("shrunk counterexample fails %q, original failed %q",
			f.Minned.FirstOracle(), f.Result.FirstOracle())
	}
	replay := explore.Run(explore.Generate(f.Seed), opt)
	if !replay.Failed() || replay.Log != f.Result.Log {
		t.Fatalf("replay command %q does not reproduce the original failure", f.ReplayCommand())
	}
	// The failure carries its flight record: last trace events, a final
	// metrics snapshot, and the timeline tail, all of which reach the
	// counterexample artifact through Report().
	report := f.Report()
	for _, want := range []string{
		"flight recorder: last",
		"final metrics snapshot",
		"chain.writes_committed",
		"timeline tail",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("failure report missing flight-record section %q:\n%s", want, report)
		}
	}
	if !strings.Contains(f.BlackBox, "t=") {
		t.Errorf("flight record has no trace events:\n%s", f.BlackBox)
	}
	t.Logf("caught at seed %d, first oracle %q\nreplay: %s",
		f.Seed, f.Result.FirstOracle(), f.ReplayCommand())
}

// TestExploreCatchesDisabledRetransmit is the rtx oracle's teeth check:
// with every replica's retransmit buffer silently disabled, any scenario
// lossy enough to provoke a NACK must fail the rtx oracle (a node answered
// NACKs it could not serve), and the replay command must carry both the
// backend and the injection flag.
func TestExploreCatchesDisabledRetransmit(t *testing.T) {
	opt := explore.RunOptions{Retransmit: true, InjectDisableRetransmit: true}
	sr := explore.Sweep(1, 30, runtime.NumCPU(), opt)
	if len(sr.Failures) == 0 {
		t.Fatal("disabled-retransmit bug escaped a 30-seed sweep")
	}
	var rtxFail *explore.Failure
	for _, f := range sr.Failures {
		if f.Result.FirstOracle() == "rtx" {
			rtxFail = f
			break
		}
	}
	if rtxFail == nil {
		t.Fatalf("no failure blamed the rtx oracle; first failure: %s", sr.Failures[0].Result.Failures[0])
	}
	for _, want := range []string{"-explore.backend=retransmit", "-explore.inject-disable-retransmit"} {
		if cmd := rtxFail.ReplayCommand(); !strings.Contains(cmd, want) {
			t.Errorf("replay command %q missing %q", cmd, want)
		}
	}
	replay := explore.Run(explore.Generate(rtxFail.Seed), opt)
	if !replay.Failed() || replay.Log != rtxFail.Result.Log {
		t.Fatalf("replay command %q does not reproduce the original failure", rtxFail.ReplayCommand())
	}
	t.Logf("caught at seed %d: %s\nreplay: %s",
		rtxFail.Seed, rtxFail.Result.Failures[0], rtxFail.ReplayCommand())
}

// writeArtifacts dumps one report per failing seed (plus a summary) into
// -explore.artifacts, for CI upload.
func writeArtifacts(t *testing.T, sr explore.SweepResult) {
	dir := *exploreArtifacts
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("artifacts dir: %v", err)
	}
	summary := fmt.Sprintf("sweep base=%d n=%d failures=%d\n", sr.Base, sr.N, len(sr.Failures))
	for _, f := range sr.Failures {
		summary += fmt.Sprintf("seed %d: %s\n", f.Seed, f.Result.Failures[0])
		body := f.Report() + "\noriginal run log:\n" + f.Result.Log
		name := filepath.Join(dir, fmt.Sprintf("seed-%d.txt", f.Seed))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "summary.txt"), []byte(summary), 0o644); err != nil {
		t.Fatalf("write summary: %v", err)
	}
}
