package explore

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestGenerateExtendedShapes checks the extended fault set produces every
// new episode kind, and that the classic set is untouched by its existence:
// Generate never emits a new kind, and for any seed the cluster shape and
// base link profile are identical across fault sets (the kind draw is the
// only widened draw).
func TestGenerateExtendedShapes(t *testing.T) {
	kinds := map[EpisodeKind]int{}
	for seed := int64(1); seed <= 200; seed++ {
		ext := GenerateWith(seed, FaultsExtended)
		for _, e := range ext.Episodes {
			kinds[e.Kind]++
		}
		classic := Generate(seed)
		for _, e := range classic.Episodes {
			switch e.Kind {
			case NthLossBurst, CorruptBurst, OneWayOutage, PauseResume:
				t.Fatalf("seed %d: classic generator emitted extended kind %v", seed, e.Kind)
			}
		}
		if classic.Switches != ext.Switches || classic.Spares != ext.Spares ||
			classic.Steps != ext.Steps || classic.Link != ext.Link {
			t.Fatalf("seed %d: cluster shape diverged across fault sets:\n%s\nvs\n%s",
				seed, classic.Log(), ext.Log())
		}
	}
	for _, k := range []EpisodeKind{NthLossBurst, CorruptBurst, OneWayOutage, PauseResume} {
		if kinds[k] < 5 {
			t.Errorf("kind %v appeared only %d times across 200 extended scenarios", k, kinds[k])
		}
	}
}

// TestNormalizeExtendedInvariants throws hostile mutations (the kind
// shrinking produces) at extended scenarios and checks Normalize restores
// every admission rule for the new kinds.
func TestNormalizeExtendedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		sc := GenerateWith(rng.Int63n(1000), FaultsExtended)
		switch rng.Intn(5) {
		case 0:
			sc.Switches = 2
		case 1:
			sc.Steps /= 3
		case 2:
			sc.Switches--
		case 3:
			if len(sc.Episodes) > 0 {
				sc.Episodes[rng.Intn(len(sc.Episodes))].AtStep = rng.Intn(400)
			}
		case 4:
			if len(sc.Episodes) > 0 {
				sc.Episodes[rng.Intn(len(sc.Episodes))].Switch = rng.Intn(8)
			}
		}
		n := sc.Normalize()
		prevEnd := 0
		crashed := map[int]bool{}
		pausedSet := map[int]bool{}
		for _, e := range n.Episodes {
			if e.AtStep < prevEnd || e.AtStep >= n.Steps {
				t.Fatalf("trial %d: episode out of order/range: %v in\n%s", trial, e, n.Log())
			}
			prevEnd = e.AtStep + e.Steps + 1
			switch e.Kind {
			case Crash:
				if e.Switch >= n.Switches || pausedSet[e.Switch] {
					t.Fatalf("trial %d: bad crash: %v", trial, e)
				}
				crashed[e.Switch] = true
			case NthLossBurst:
				if e.N < 2 || e.AtStep+e.Steps >= n.Steps {
					t.Fatalf("trial %d: bad nthloss: %v", trial, e)
				}
			case CorruptBurst:
				if e.Loss <= 0 || e.AtStep+e.Steps >= n.Steps {
					t.Fatalf("trial %d: bad corrupt: %v", trial, e)
				}
			case OneWayOutage:
				if len(e.A) != 1 || len(e.B) != 1 || e.A[0] == e.B[0] ||
					e.A[0] >= n.Switches || e.B[0] >= n.Switches ||
					e.AtStep+e.Steps >= n.Steps {
					t.Fatalf("trial %d: bad oneway: %v", trial, e)
				}
			case PauseResume:
				if e.Switch >= n.Switches || crashed[e.Switch] || pausedSet[e.Switch] ||
					e.AtStep+e.Steps >= n.Steps {
					t.Fatalf("trial %d: bad pause: %v", trial, e)
				}
				pausedSet[e.Switch] = true
			}
		}
		// The workload must always have >= 2 targets: crashes and pauses
		// both retire their victim permanently.
		if n.Switches-len(crashed)-len(pausedSet) < 2 {
			t.Fatalf("trial %d: %d crashes + %d pauses for %d switches:\n%s",
				trial, len(crashed), len(pausedSet), n.Switches, n.Log())
		}
	}
}

// TestExploreExtendedAllOraclesPass is chaos parity: under every new fault
// class — deterministic every-Nth loss, payload corruption, one-way
// blackhole and reject outages, process pause/resume — the existing oracles
// all pass, with no fault-specific assertion code. The run also pins that
// the interesting paths were actually exercised: pauses happened, and at
// least one pause straddled the failure timeout so the controller evicted
// and then revived the victim.
func TestExploreExtendedAllOraclesPass(t *testing.T) {
	if testing.Short() {
		t.Skip("extended sweep is not short")
	}
	var (
		mu       sync.Mutex
		paused   int
		revivals uint64
	)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for seed := int64(1); seed <= 120; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sc := GenerateWith(seed, FaultsExtended)
			r := Run(sc, RunOptions{})
			mu.Lock()
			defer mu.Unlock()
			if r.Failed() {
				t.Errorf("seed %d failed:\n%s", seed, r.Log)
			}
			for _, e := range sc.Episodes {
				if e.Kind == PauseResume {
					paused++
				}
			}
			revivals += r.Revivals
		}(seed)
	}
	wg.Wait()
	if paused < 5 {
		t.Errorf("only %d pause episodes across 120 extended seeds", paused)
	}
	if revivals == 0 {
		t.Error("no pause was long enough to trigger evict + revive; the detector path went unexercised")
	}
}

// TestExploreExtendedShardDeterminism extends the parallel-simulation
// contract to the new fault classes: with every-Nth loss, corruption,
// one-way outages, and pause/resume in play, the full Result must stay
// byte-identical across 1, 2, and 8 shards.
func TestExploreExtendedShardDeterminism(t *testing.T) {
	const seeds = 30
	type key struct {
		seed   int64
		shards int
	}
	results := make(map[key]*Result)
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 4)
	for seed := int64(1); seed <= seeds; seed++ {
		for _, shards := range []int{1, 2, 8} {
			wg.Add(1)
			go func(seed int64, shards int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				r := Run(GenerateWith(seed, FaultsExtended), RunOptions{Shards: shards})
				mu.Lock()
				results[key{seed, shards}] = r
				mu.Unlock()
			}(seed, shards)
		}
	}
	wg.Wait()
	for seed := int64(1); seed <= seeds; seed++ {
		want := results[key{seed, 1}]
		for _, shards := range []int{2, 8} {
			got := results[key{seed, shards}]
			if got.Log != want.Log {
				t.Errorf("seed %d shards=%d: log diverged from sequential\n-- sequential --\n%s\n-- sharded --\n%s",
					seed, shards, want.Log, got.Log)
			}
			if got.Committed != want.Committed || got.Recoveries != want.Recoveries || got.Revivals != want.Revivals {
				t.Errorf("seed %d shards=%d: committed/recoveries/revivals %d/%d/%d vs %d/%d/%d",
					seed, shards, got.Committed, got.Recoveries, got.Revivals,
					want.Committed, want.Recoveries, want.Revivals)
			}
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestExploreCatchesNoRevive is the injected-bug proof for the pause/resume
// fault class: break the controller's revival path and an existing oracle —
// counter totals, with zero pause-specific assertion code — must catch it,
// and the shrinker must minimize the counterexample while keeping both the
// oracle and the pause episode that provokes it.
//
// Seed 46 is the first extended seed whose pause straddles the failure
// timeout (Revivals=1 on the healthy run); pinned by the generator's
// determinism.
func TestExploreCatchesNoRevive(t *testing.T) {
	sc := GenerateWith(46, FaultsExtended)
	if r := Run(sc, RunOptions{}); r.Failed() || r.Revivals == 0 {
		t.Fatalf("seed 46 healthy run: failed=%v revivals=%d, want pass with >= 1 revival:\n%s",
			r.Failed(), r.Revivals, r.Log)
	}
	opt := RunOptions{InjectNoRevive: true}
	r := Run(sc, opt)
	if !r.Failed() {
		t.Fatalf("no-revive bug not caught:\n%s", r.Log)
	}
	if r.FirstOracle() != "counter" {
		t.Fatalf("no-revive caught by %q, want the counter-totals oracle:\n%s", r.FirstOracle(), r.Log)
	}
	shrunk, minned, _ := Shrink(sc, opt, r)
	if minned.FirstOracle() != r.FirstOracle() {
		t.Fatalf("shrunk scenario fails %q, original failed %q", minned.FirstOracle(), r.FirstOracle())
	}
	hasPause := false
	for _, e := range shrunk.Episodes {
		if e.Kind == PauseResume {
			hasPause = true
		}
	}
	if !hasPause {
		t.Fatalf("shrunk counterexample lost the pause episode that provokes the bug:\n%s", minned.Log)
	}
	if len(shrunk.Episodes) >= len(sc.Episodes) && len(sc.Episodes) > 1 {
		t.Errorf("shrinker removed nothing: %d episodes before and after", len(sc.Episodes))
	}
}

// TestExploreCatchesSkipForwardUnderExtendedFaults re-proves the classic
// injected bug under each new fault class separately: a head that skips
// forwarding must still be caught by the durability oracle while the fabric
// is running a corruption burst, an every-Nth loss burst, or a one-way
// outage — and the shrinker must handle each kind while minimizing. One
// injected-bug proof per fault class (pause/resume has its own above).
//
// The seeds are the first extended seeds whose scenario contains the named
// kind, passes healthy, and fails durability with the bug armed; pinned by
// the generator's determinism.
func TestExploreCatchesSkipForwardUnderExtendedFaults(t *testing.T) {
	cases := []struct {
		name string
		kind EpisodeKind
		seed int64
	}{
		{"corrupt-burst", CorruptBurst, 16},
		{"nth-loss-burst", NthLossBurst, 154},
		{"one-way-outage", OneWayOutage, 440},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sc := GenerateWith(tc.seed, FaultsExtended)
			hasKind := false
			for _, e := range sc.Episodes {
				if e.Kind == tc.kind {
					hasKind = true
				}
			}
			if !hasKind {
				t.Fatalf("seed %d lost its %v episode; regenerate the pin:\n%s", tc.seed, tc.kind, sc.Log())
			}
			if h := Run(sc, RunOptions{}); h.Failed() {
				t.Fatalf("seed %d healthy run failed:\n%s", tc.seed, h.Log)
			}
			opt := RunOptions{InjectSkipForward: 3}
			r := Run(sc, opt)
			if !r.Failed() {
				t.Fatalf("skip-forward bug not caught under %v:\n%s", tc.kind, r.Log)
			}
			if r.FirstOracle() != "durability" {
				t.Fatalf("skip-forward caught by %q, want durability:\n%s", r.FirstOracle(), r.Log)
			}
			_, minned, _ := Shrink(sc, opt, r)
			if minned.FirstOracle() != r.FirstOracle() {
				t.Fatalf("shrunk scenario fails %q, original failed %q", minned.FirstOracle(), r.FirstOracle())
			}
		})
	}
}

// TestReplayCommandExtended: a failure found sweeping the extended set must
// say so in its replay one-liner, or the replay regenerates a different
// scenario.
func TestReplayCommandExtended(t *testing.T) {
	f := &Failure{Seed: 7, Opt: RunOptions{Faults: FaultsExtended}}
	if cmd := f.ReplayCommand(); !strings.Contains(cmd, "-explore.faults=extended") {
		t.Fatalf("replay command %q does not select the extended fault set", cmd)
	}
	f = &Failure{Seed: 7}
	if cmd := f.ReplayCommand(); strings.Contains(cmd, "faults") {
		t.Fatalf("classic replay command %q mentions fault set", cmd)
	}
}
