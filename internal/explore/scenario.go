// Package explore is a deterministic, seed-replayable randomized model
// checker for the SwiShmem protocols. From a single int64 seed it generates
// a whole scenario — cluster shape, link profile, client workload mix, and
// a fault schedule of switch crashes, partitions, loss bursts, and spare
// joins — runs it on the simulated cluster, and checks correctness oracles
// after the run: per-key linearizability of the SRO register (including
// pending operations from failed writers), exact counter totals and LWW
// convergence for EWO, chain-reconfiguration safety (no committed write
// lost across failover), and switch memory-budget invariants.
//
// Everything is a pure function of the seed: the same seed produces a
// byte-identical scenario log, so any failing run is replayable with
//
//	go test -run 'TestExplore$' -explore.seed=N
//
// On failure the explorer shrinks the scenario — dropping fault episodes,
// shortening the workload, reducing the cluster, cleaning the link — to a
// minimal counterexample that still fails the same oracle, and reports both
// the replay command and the shrunk scenario log. See TESTING.md.
package explore

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"swishmem"
	"swishmem/internal/sim"
)

// EpisodeKind enumerates fault-schedule episodes.
type EpisodeKind int

// Episode kinds.
const (
	// Crash fail-stops a replica switch (after a gossip-margin pause, so
	// EWO increments issued at the victim have had time to replicate —
	// otherwise losing them is correct CRDT behavior, not a bug).
	Crash EpisodeKind = iota
	// PartitionFault splits the replicas into two groups for Steps workload
	// steps, then heals.
	PartitionFault
	// LossBurst degrades every inter-switch link to the episode's loss rate
	// for Steps workload steps, then restores the base profile.
	LossBurst
	// Join adds a spare switch to the EWO counter group (§6.3 recovery).
	Join
	// NthLossBurst degrades every inter-switch link to deterministic
	// every-Nth-packet loss for Steps workload steps (pumba's periodic-loss
	// mode; N is Episode.N), then restores the base profile. Unlike
	// LossBurst the drop pattern is exactly periodic per link.
	NthLossBurst
	// CorruptBurst bit-corrupts payloads on every inter-switch link at rate
	// Loss for Steps workload steps. Corrupted messages are dropped after
	// the wire decoder proves it survives their bit-flipped encoding.
	CorruptBurst
	// OneWayOutage administratively kills only the A[0]->B[0] direction for
	// Steps steps — blackhole by default, reject-with-ICMP-analog when
	// Reject is set — while B[0]->A[0] stays healthy (asymmetric fault).
	OneWayOutage
	// PauseResume freezes replica Switch for Steps workload steps (the
	// GC-pause analog: dispatch stops, inbound backlogs), then resumes it
	// and lets the backlog replay. The victim is retired from the workload
	// for the rest of the scenario (a paused-then-evicted switch serves
	// stale reads until it rejoins), but every state oracle still covers
	// it: the controller must either never declare it failed (short pause)
	// or evict it and walk it back in when it beats again.
	PauseResume
)

// episodeKinds says, once per kind, what an episode of that kind is: its
// name in logs, whether it is a window (it lasts Steps workload steps and
// then ends), and whether it can drop messages (which makes a scenario
// non-strict). A new kind is declared here and handled in Normalize's and
// Run's switches.
var episodeKinds = [...]struct {
	name          string
	window, drops bool
}{
	Crash:          {"crash", false, false},
	PartitionFault: {"partition", true, true},
	LossBurst:      {"lossburst", true, true},
	Join:           {"join", false, false},
	NthLossBurst:   {"nthloss", true, true},
	CorruptBurst:   {"corrupt", true, true},
	OneWayOutage:   {"oneway", true, true},
	// A paused switch delays messages (its backlog replays) rather than
	// dropping them, and the few sends it suppresses (driver-submitted ops
	// while frozen) are protocol-retried: the same ambiguity a crash leaves,
	// which the strict oracles model.
	PauseResume: {"pause", true, false},
}

func (k EpisodeKind) known() bool { return k >= 0 && int(k) < len(episodeKinds) }

// window reports whether an episode of kind k lasts Steps steps and ends.
func (k EpisodeKind) window() bool { return k.known() && episodeKinds[k].window }

func (k EpisodeKind) String() string {
	if !k.known() {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return episodeKinds[k].name
}

// Episode is one entry of a scenario's fault schedule. Episodes never
// overlap: each starts at AtStep and (for windows) ends Steps workload steps
// later, strictly before the next episode begins.
type Episode struct {
	Kind   EpisodeKind
	AtStep int
	// Steps is the duration of a window, in workload steps.
	Steps int
	// A and B are the partition sides (replica indices).
	A, B []int
	// Loss is the burst loss rate.
	Loss float64
	// Switch is the crash victim (replica index), the joining spare's
	// ordinal (0-based among spares), or the pause victim (replica index).
	Switch int
	// N is the every-Nth-packet period of an NthLossBurst (>= 1).
	N int
	// Reject selects reject-with-notification over silent blackhole for a
	// OneWayOutage.
	Reject bool
}

func (e Episode) String() string {
	if !e.Kind.known() {
		return "episode ?"
	}
	steps := ""
	if e.Kind.window() {
		steps = fmt.Sprintf(" steps=%d", e.Steps)
	}
	return fmt.Sprintf("episode %s at=%d%s %s", e.Kind, e.AtStep, steps, e.detail())
}

// detail renders the kind's own parameters.
func (e Episode) detail() string {
	switch e.Kind {
	case Crash, PauseResume:
		return fmt.Sprintf("switch=%d", e.Switch)
	case PartitionFault:
		return fmt.Sprintf("a=%v b=%v", e.A, e.B)
	case LossBurst:
		return fmt.Sprintf("loss=%.3f", e.Loss)
	case Join:
		return fmt.Sprintf("spare=%d", e.Switch)
	case NthLossBurst:
		return fmt.Sprintf("n=%d", e.N)
	case CorruptBurst:
		return fmt.Sprintf("rate=%.3f", e.Loss)
	}
	return fmt.Sprintf("from=%v to=%v reject=%v", e.A, e.B, e.Reject) // OneWayOutage
}

// link returns the profile a link window applies on top of base: a burst's
// loss, period or corruption, or a one-way outage's deny mode.
func (e Episode) link(base swishmem.LinkProfile) swishmem.LinkProfile {
	switch e.Kind {
	case LossBurst:
		base.LossRate = e.Loss
	case NthLossBurst:
		base.LossEveryN = e.N
	case CorruptBurst:
		base.CorruptRate = e.Loss
	case OneWayOutage:
		base.Deny = swishmem.DenyBlackhole
		if e.Reject {
			base.Deny = swishmem.DenyReject
		}
	}
	return base
}

// Scenario is one generated model-checking input: everything Run needs to
// reproduce an execution exactly.
type Scenario struct {
	Seed     int64
	Switches int // replicas, >= 2
	Spares   int
	Link     swishmem.LinkProfile
	// Steps is the number of workload operations.
	Steps int
	// OpGap is the virtual time between workload operations.
	OpGap time.Duration
	// Keys is the SRO key-space size (small, to force per-key concurrency).
	Keys     int
	Episodes []Episode
}

// Strict reports whether the SRO register is expected to be linearizable in
// this scenario. The chain package documents a bounded monotone-apply
// anomaly under message loss (chain.go, "Departure from textbook chain
// replication"), so linearizability and member value agreement are asserted
// only when no messages can be silently dropped: a lossless base link and no
// episode of a kind that drops. Crashes, joins, pauses, duplication,
// reordering, and jitter are all fair game for the strict oracles.
func (s Scenario) Strict() bool {
	if s.Link.LossRate > 0 || s.Link.LossEveryN > 0 || s.Link.CorruptRate > 0 || s.Link.Deny != 0 {
		return false
	}
	for _, e := range s.Episodes {
		if e.Kind.known() && episodeKinds[e.Kind].drops {
			return false
		}
	}
	return true
}

// Crashes counts crash episodes.
func (s Scenario) Crashes() int {
	n := 0
	for _, e := range s.Episodes {
		if e.Kind == Crash {
			n++
		}
	}
	return n
}

// Log renders the scenario deterministically — the replay-comparison
// artifact: same seed, same bytes.
func (s Scenario) Log() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario seed=%d switches=%d spares=%d steps=%d opgap=%s keys=%d strict=%v\n",
		s.Seed, s.Switches, s.Spares, s.Steps, s.OpGap, s.Keys, s.Strict())
	fmt.Fprintf(&b, "link lat=%s jit=%s bw=%.0fbps loss=%.3f dup=%.3f reorder=%.3f\n",
		time.Duration(s.Link.Latency), time.Duration(s.Link.Jitter),
		s.Link.BandwidthBps, s.Link.LossRate, s.Link.DupRate, s.Link.ReorderRate)
	for _, e := range s.Episodes {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// FaultSet selects which episode kinds a generated scenario may contain.
type FaultSet int

// Fault sets.
const (
	// FaultsClassic is the original repertoire: crashes, partitions, random
	// loss bursts, spare joins. Generate(seed) uses it, and its scenarios
	// are byte-identical to those of every earlier release — nightly seeds
	// stay replayable.
	FaultsClassic FaultSet = iota
	// FaultsExtended adds the chaos-parity kinds: every-Nth deterministic
	// loss, payload corruption, one-way outages (blackhole or reject), and
	// process pause/resume. Selected by the -explore.faults=extended flag.
	FaultsExtended
)

// Generate derives a scenario from a seed with the classic fault set. The
// generator RNG is independent of the simulation and workload RNGs, so the
// scenario shape is a function of the seed alone.
func Generate(seed int64) Scenario { return GenerateWith(seed, FaultsClassic) }

// GenerateWith derives a scenario from a seed, drawing episodes from the
// given fault set. The classic set reproduces Generate exactly (same draw
// sequence); the extended set widens only the per-episode kind draw, so the
// cluster shape and link profile of a seed are identical across sets.
func GenerateWith(seed int64, faults FaultSet) Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x5ee0c0de))
	s := Scenario{
		Seed:     seed,
		Switches: 2 + rng.Intn(4), // 2..5
		Spares:   rng.Intn(3),     // 0..2
		Steps:    80 + rng.Intn(221),
		OpGap:    time.Duration(30+rng.Intn(41)) * time.Microsecond,
		Keys:     4 + rng.Intn(13),
	}
	s.Link = swishmem.LinkProfile{
		Latency:      sim.Duration(5+rng.Intn(16)) * 1000, // 5..20us
		BandwidthBps: 100e9,
	}
	if rng.Intn(2) == 0 {
		s.Link.Jitter = sim.Duration(rng.Intn(26)) * 1000
	}
	if rng.Intn(2) == 0 { // lossy fabric: the non-strict regime
		s.Link.LossRate = 0.005 + rng.Float64()*0.025
		s.Link.DupRate = rng.Float64() * 0.02
		s.Link.ReorderRate = rng.Float64() * 0.08
	}

	// The classic kinds are the first four; the draw is the kind itself.
	kinds := int(Join) + 1
	if faults == FaultsExtended {
		kinds = len(episodeKinds)
	}

	// Fault episodes: sequential, non-overlapping, leaving >= 2 replicas.
	nEp := rng.Intn(4)
	cursor := 10 + rng.Intn(20)
	crashes := 0
	joined := make(map[int]bool)
	paused := make(map[int]bool)
	for i := 0; i < nEp && cursor < s.Steps-10; i++ {
		e := Episode{Kind: EpisodeKind(rng.Intn(kinds)), AtStep: cursor}
		switch e.Kind {
		case Crash:
			if crashes >= s.Switches-2 {
				continue
			}
			e.Switch = rng.Intn(s.Switches)
			crashes++
		case PartitionFault:
			e.Steps = 10 + rng.Intn(40)
			cut := 1 + rng.Intn(s.Switches-1)
			for r := 0; r < s.Switches; r++ {
				if r < cut {
					e.A = append(e.A, r)
				} else {
					e.B = append(e.B, r)
				}
			}
		case LossBurst:
			e.Steps = 10 + rng.Intn(40)
			e.Loss = 0.05 + rng.Float64()*0.20
		case Join:
			if s.Spares == 0 {
				continue
			}
			sp := rng.Intn(s.Spares)
			if joined[sp] {
				continue
			}
			joined[sp] = true
			e.Switch = sp
		case NthLossBurst:
			e.Steps = 10 + rng.Intn(40)
			e.N = 2 + rng.Intn(9) // every 2nd..10th packet
		case CorruptBurst:
			e.Steps = 10 + rng.Intn(40)
			e.Loss = 0.05 + rng.Float64()*0.25
		case OneWayOutage: // on a directed replica pair
			e.Steps = 10 + rng.Intn(40)
			from := rng.Intn(s.Switches)
			to := rng.Intn(s.Switches - 1)
			if to >= from {
				to++
			}
			e.A, e.B = []int{from}, []int{to}
			e.Reject = rng.Intn(2) == 0
		case PauseResume: // the GC-pause analog
			victim := rng.Intn(s.Switches)
			if paused[victim] || s.Switches-crashes-len(paused) < 3 {
				continue
			}
			paused[victim] = true
			e.Switch = victim
			// 10..59 steps x 30..70us OpGap straddles the controller's 2ms
			// failure timeout: some pauses evict, some stay undetected.
			e.Steps = 10 + rng.Intn(50)
		}
		s.Episodes = append(s.Episodes, e)
		cursor += e.Steps + 15 + rng.Intn(30)
	}
	return s.Normalize()
}

// TortureScenario is the repository's long-standing hand-written stress
// scenario expressed as a Scenario: 4 replicas + 2 spares on a jittery,
// lossy, reordering fabric; mixed register traffic; a mid-run partition;
// and two switch crashes with failover and spare recovery. The root torture
// test feeds it through Run and asserts on the Result, so the hand-written
// test and the explorer share one execution and oracle path.
func TortureScenario(seed int64) Scenario {
	return Scenario{
		Seed:     seed,
		Switches: 4,
		Spares:   2,
		Link: swishmem.LinkProfile{Latency: 15_000, Jitter: 20_000,
			BandwidthBps: 100e9, LossRate: 0.02, DupRate: 0.01, ReorderRate: 0.05},
		Steps: 390,
		OpGap: 50 * time.Microsecond,
		Keys:  12,
		Episodes: []Episode{
			{Kind: PartitionFault, AtStep: 150, Steps: 60, A: []int{0, 1}, B: []int{2, 3}},
			{Kind: Crash, AtStep: 211, Switch: 0},
			{Kind: Crash, AtStep: 311, Switch: 2},
		},
	}.Normalize()
}

// Normalize repairs a scenario after generation or shrink mutations so Run
// can assume its invariants: episodes sorted, in range, non-overlapping;
// crash victims and partition sides are valid replica indices; at least two
// replicas survive all crashes; joins name existing spares, once each.
func (s Scenario) Normalize() Scenario {
	if s.Switches < 2 {
		s.Switches = 2
	}
	if s.Spares < 0 {
		s.Spares = 0
	}
	if s.Steps < 10 {
		s.Steps = 10
	}
	if s.Keys < 1 {
		s.Keys = 1
	}
	if s.OpGap <= 0 {
		s.OpGap = 50 * time.Microsecond
	}
	eps := append([]Episode(nil), s.Episodes...)
	sort.SliceStable(eps, func(i, j int) bool { return eps[i].AtStep < eps[j].AtStep })
	var out []Episode
	crashes := 0
	crashed := make(map[int]bool)
	joined := make(map[int]bool)
	paused := make(map[int]bool)
	// retired counts switches permanently removed from the workload: crashed
	// switches plus paused ones (a paused switch is retired from the workload
	// even after resume, because a rejoining replica's local reads are stale
	// until the controller re-adds it). Classic scenarios never pause, so for
	// them retired == crashes and the admission rules below reduce exactly to
	// the original ones — Normalize stays byte-compatible on classic seeds.
	retired := func() int { return crashes + len(paused) }
	nextFree := 1 // earliest step the next episode may start at
	for _, e := range eps {
		if e.AtStep < nextFree {
			e.AtStep = nextFree
		}
		if e.AtStep >= s.Steps {
			continue
		}
		if !e.Kind.window() {
			e.Steps = 0
		} else if !s.clampWindow(&e) {
			continue
		}
		switch e.Kind {
		case Crash:
			// crashes >= s.Switches-2 is the classic guard; the retired
			// budget additionally keeps >= 2 workload targets alive when
			// pause episodes are present, and forbids crashing a switch
			// that a pause episode already owns.
			if e.Switch < 0 || e.Switch >= s.Switches || crashed[e.Switch] || paused[e.Switch] ||
				crashes >= s.Switches-2 || s.Switches-retired() < 3 {
				continue
			}
			crashed[e.Switch] = true
			crashes++
		case PartitionFault:
			e.A = filterReplicas(e.A, s.Switches)
			e.B = filterReplicas(e.B, s.Switches)
			if len(e.A) == 0 || len(e.B) == 0 {
				continue
			}
		case LossBurst, CorruptBurst:
			if e.Loss <= 0 {
				continue
			}
		case Join:
			if e.Switch < 0 || e.Switch >= s.Spares || joined[e.Switch] {
				continue
			}
			joined[e.Switch] = true
		case NthLossBurst:
			if e.N < 2 { // N==1 would be a full blackout, not a loss pattern
				continue
			}
		case OneWayOutage:
			e.A = filterReplicas(e.A, s.Switches)
			e.B = filterReplicas(e.B, s.Switches)
			if len(e.A) != 1 || len(e.B) != 1 || e.A[0] == e.B[0] {
				continue
			}
		case PauseResume:
			// A paused switch is retired from the workload permanently (see
			// retired above), so it consumes the same budget as a crash and
			// each switch may pause at most once.
			if e.Switch < 0 || e.Switch >= s.Switches || crashed[e.Switch] || paused[e.Switch] ||
				s.Switches-retired() < 3 {
				continue
			}
			paused[e.Switch] = true
		default:
			continue
		}
		out = append(out, e)
		nextFree = e.AtStep + e.Steps + 1
	}
	s.Episodes = out
	return s
}

// clampWindow fits a window into the workload: at least one step, ending
// before the last step. It reports false when no step fits.
func (s Scenario) clampWindow(e *Episode) bool {
	if e.Steps < 1 {
		e.Steps = 1
	}
	if e.AtStep+e.Steps >= s.Steps {
		e.Steps = s.Steps - 1 - e.AtStep
	}
	return e.Steps >= 1
}

func filterReplicas(idx []int, switches int) []int {
	var out []int
	seen := make(map[int]bool)
	for _, i := range idx {
		if i >= 0 && i < switches && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
