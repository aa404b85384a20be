package explore

import (
	"math/rand"
	"strings"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if a.Log() != b.Log() {
			t.Fatalf("seed %d: scenario logs differ:\n%s\nvs\n%s", seed, a.Log(), b.Log())
		}
	}
	if Generate(1).Log() == Generate(2).Log() {
		t.Fatal("different seeds generated identical scenarios")
	}
}

func TestGenerateShapes(t *testing.T) {
	strict, episodes := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed)
		if sc.Switches < 2 || sc.Switches > 5 {
			t.Fatalf("seed %d: switches = %d", seed, sc.Switches)
		}
		if sc.Crashes() > sc.Switches-2 {
			t.Fatalf("seed %d: %d crashes would leave < 2 replicas", seed, sc.Crashes())
		}
		if sc.Strict() {
			strict++
		}
		episodes += len(sc.Episodes)
	}
	// The generator must produce a healthy mix: strict scenarios keep the
	// linearizability oracle exercised, episodes keep faults exercised.
	if strict < 20 {
		t.Errorf("only %d/200 strict scenarios", strict)
	}
	if episodes < 100 {
		t.Errorf("only %d episodes across 200 scenarios", episodes)
	}
}

func TestNormalizeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		sc := Generate(rng.Int63n(1000))
		// Random hostile mutations that shrinking could produce.
		switch rng.Intn(5) {
		case 0:
			sc.Switches = 2
		case 1:
			sc.Steps /= 3
		case 2:
			sc.Spares = 0
		case 3:
			if len(sc.Episodes) > 0 {
				sc.Episodes[rng.Intn(len(sc.Episodes))].AtStep = rng.Intn(400)
			}
		case 4:
			sc.Switches--
		}
		n := sc.Normalize()
		if n.Switches < 2 || n.Steps < 10 || n.Keys < 1 {
			t.Fatalf("trial %d: bad shape after normalize: %+v", trial, n)
		}
		crashes := 0
		prevEnd := 0
		for _, e := range n.Episodes {
			if e.AtStep < prevEnd || e.AtStep >= n.Steps {
				t.Fatalf("trial %d: episode out of order/range: %v in\n%s", trial, e, n.Log())
			}
			prevEnd = e.AtStep + e.Steps + 1
			switch e.Kind {
			case Crash:
				crashes++
				if e.Switch >= n.Switches {
					t.Fatalf("trial %d: crash of nonexistent switch: %v", trial, e)
				}
			case PartitionFault:
				if len(e.A) == 0 || len(e.B) == 0 || e.AtStep+e.Steps >= n.Steps {
					t.Fatalf("trial %d: bad partition: %v", trial, e)
				}
			case Join:
				if e.Switch >= n.Spares {
					t.Fatalf("trial %d: join of nonexistent spare: %v", trial, e)
				}
			}
		}
		if crashes > n.Switches-2 {
			t.Fatalf("trial %d: %d crashes for %d switches", trial, crashes, n.Switches)
		}
	}
}

// TestRunDeterministic is the replayability contract: the same seed yields a
// byte-identical run log, including every fault application and oracle
// verdict.
func TestRunDeterministic(t *testing.T) {
	for _, seed := range []int64{2, 4, 7} { // strict, faulty, and crashy shapes
		sc := Generate(seed)
		a := Run(sc, RunOptions{})
		b := Run(sc, RunOptions{})
		if a.Log != b.Log {
			t.Fatalf("seed %d: run logs differ:\n%s\nvs\n%s", seed, a.Log, b.Log)
		}
	}
}

func TestRunAllOraclesPass(t *testing.T) {
	n := int64(40)
	if testing.Short() {
		n = 12
	}
	for seed := int64(1); seed <= n; seed++ {
		r := Run(Generate(seed), RunOptions{})
		if r.Failed() {
			t.Errorf("seed %d failed:\n%s", seed, r.Log)
		}
	}
}

func TestSweepCatchesAndShrinksInjectedBug(t *testing.T) {
	opt := RunOptions{InjectSkipForward: 1}
	sr := Sweep(1, 20, 4, opt)
	if len(sr.Failures) == 0 {
		t.Fatal("the injected skip-forward bug was never caught in 20 seeds")
	}
	f := sr.Failures[0]
	if f.Result.FirstOracle() == "" {
		t.Fatal("failure without an oracle name")
	}
	// The shrunk scenario must still fail the same oracle and be no larger.
	if !f.Minned.Failed() || f.Minned.FirstOracle() != f.Result.FirstOracle() {
		t.Fatalf("shrunk scenario does not reproduce the original oracle failure: %v vs %v",
			f.Minned.Failures, f.Result.Failures)
	}
	if f.Shrunk.Steps > f.Result.Scenario.Steps || len(f.Shrunk.Episodes) > len(f.Result.Scenario.Episodes) {
		t.Fatalf("shrunk scenario grew: %d/%d steps, %d/%d episodes",
			f.Shrunk.Steps, f.Result.Scenario.Steps, len(f.Shrunk.Episodes), len(f.Result.Scenario.Episodes))
	}
	// Replay contract: the printed seed reproduces the failure from scratch.
	replay := Run(Generate(f.Seed), opt)
	if !replay.Failed() {
		t.Fatalf("replay of seed %d did not fail", f.Seed)
	}
	if replay.Log != f.Result.Log {
		t.Fatalf("replay of seed %d produced a different log", f.Seed)
	}
}

func TestSweepWorkerCountInvariance(t *testing.T) {
	opt := RunOptions{InjectSkipForward: 1}
	seq := Sweep(1, 12, 1, opt)
	par := Sweep(1, 12, 8, opt)
	if len(seq.Failures) != len(par.Failures) {
		t.Fatalf("worker count changed results: %d vs %d failures", len(seq.Failures), len(par.Failures))
	}
	for i := range seq.Failures {
		if seq.Failures[i].Seed != par.Failures[i].Seed ||
			seq.Failures[i].Result.Log != par.Failures[i].Result.Log ||
			seq.Failures[i].Minned.Log != par.Failures[i].Minned.Log {
			t.Fatalf("failure %d differs between worker counts", i)
		}
	}
}

func TestShrinkKeepsFailingScenarioValid(t *testing.T) {
	opt := RunOptions{InjectSkipForward: 1}
	sr := Sweep(1, 20, 4, opt)
	if len(sr.Failures) == 0 {
		t.Skip("no failure to shrink")
	}
	sc := sr.Failures[0].Shrunk
	if norm := sc.Normalize(); norm.Log() != sc.Log() {
		t.Fatalf("shrunk scenario is not normalized:\n%s\nvs\n%s", sc.Log(), norm.Log())
	}
}

// TestUndecidedIsNeitherGreenNorAReproduction pins what the explorer does
// with a history the linearizability checker gives up on. The verdict has its
// own oracle name, so such a run is a failure, the sweep counts it, and the
// shrinker neither minimizes it nor accepts it as a variant of a violation.
func TestUndecidedIsNeitherGreenNorAReproduction(t *testing.T) {
	sc := Generate(3)
	res := &Result{Scenario: sc, Failures: []string{"oracle " + OracleUndecided + ": key 1: checker budget exhausted"}}
	if !res.Failed() || res.FirstOracle() != OracleUndecided {
		t.Fatalf("undecided run: failed=%v oracle=%q", res.Failed(), res.FirstOracle())
	}
	if shrunk, minned, n := Shrink(sc, RunOptions{}, res); minned != res || shrunk.Log() != sc.Log() || n != 0 {
		t.Fatal("an undecided run was shrunk: there is no defect for a variant to preserve")
	}

	// End to end on the seed that used to hang the sweep: seed 755's failure
	// shrinks through variants whose 25-57-op windows exhaust the checker.
	// It is the ROADMAP's single-crash failover defect; once that is fixed
	// the seed passes and this half needs another seed.
	sc = Generate(755)
	r := Run(sc, RunOptions{})
	if !r.Failed() {
		t.Skip("seed 755 passes: pick another seed whose shrink meets an undecided variant")
	}
	f := Investigate(755, sc, RunOptions{}, r)
	if f.ShrinkUndecided == 0 || f.Minned.FirstOracle() != r.FirstOracle() {
		t.Fatalf("shrink set aside %d undecided variants and ended on oracle %q (original %q)",
			f.ShrinkUndecided, f.Minned.FirstOracle(), r.FirstOracle())
	}
	if rep := f.Report(); !strings.Contains(rep, "shrink: ") {
		t.Fatalf("report does not say the shrink met undecided variants:\n%s", rep)
	}
	sr := Sweep(755, 1, 1, RunOptions{})
	if len(sr.Failures) != 1 || sr.Undecided != 0 || sr.ShrinkUndecided != f.ShrinkUndecided {
		t.Fatalf("sweep counted %d failures, %d undecided seeds, %d undecided variants; want 1, 0, %d",
			len(sr.Failures), sr.Undecided, sr.ShrinkUndecided, f.ShrinkUndecided)
	}
}

func TestReplayCommandFormat(t *testing.T) {
	f := &Failure{Seed: 42}
	if got, want := f.ReplayCommand(), "go test -run 'TestExplore$' -explore.seed=42"; got != want {
		t.Fatalf("replay = %q, want %q", got, want)
	}
	f.Opt.InjectSkipForward = 1
	if got := f.ReplayCommand(); got != "go test -run 'TestExplore$' -explore.seed=42 -explore.inject=1" {
		t.Fatalf("replay with inject = %q", got)
	}
	f.Opt.Retransmit = true
	f.Opt.InjectDisableRetransmit = true
	want := "go test -run 'TestExplore$' -explore.seed=42 -explore.inject=1" +
		" -explore.backend=retransmit -explore.inject-disable-retransmit"
	if got := f.ReplayCommand(); got != want {
		t.Fatalf("replay with backend+inject = %q, want %q", got, want)
	}
}

func TestTortureShapeRuns(t *testing.T) {
	// The fixed torture scenario (see swishmem's torture test) expressed as
	// a Scenario must pass all oracles too.
	sc := TortureScenario(1)
	r := Run(sc, RunOptions{})
	if r.Failed() {
		t.Fatalf("torture scenario failed:\n%s", r.Log)
	}
	if r.Recoveries < 1 {
		t.Fatalf("torture scenario saw no recovery (crashes=%d spares=%d)", sc.Crashes(), sc.Spares)
	}
	if len(r.ChainMembers) < 2 {
		t.Fatalf("chain shrank to %v", r.ChainMembers)
	}
}
