package explore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"swishmem"
	"swishmem/internal/lincheck"
)

// Workload/infrastructure constants shared by every scenario run. They are
// part of the model, not the scenario, so shrinking never perturbs them.
const (
	heartbeatPeriod = 500 * time.Microsecond
	retryTimeout    = 500 * time.Microsecond
	syncPeriod      = 500 * time.Microsecond
	settleTime      = 3 * time.Millisecond
	// gossipMargin is the pause inserted before every crash so EWO updates
	// issued at the victim have replicated: losing increments nobody else
	// ever heard is correct CRDT behavior, and asserting exact totals is
	// only sound once the victim has had a few dozen sync rounds.
	gossipMargin = 20 * time.Millisecond
	// quiesceTime runs after the workload on a calmed, healed fabric: long
	// enough for every writer retry budget (100 x 500us = 50ms), failover,
	// snapshot transfer, and EWO synchronization to finish.
	quiesceTime = 250 * time.Millisecond

	strongCapacity = 512
	counterKeys    = 16
	lwwKeys        = 4
)

// RunOptions modifies a run without being part of the scenario.
type RunOptions struct {
	// InjectSkipForward plants the chain.InjectSkipForward bug on the
	// initial head for that many writes — the intentional defect the
	// explorer must catch (TestExploreCatchesInjectedBug).
	InjectSkipForward int
	// Retransmit runs the strong register on the retransmit replication
	// backend (hop-to-hop NACK/retransmit, chain.RetransmitReplication)
	// instead of the default writer-retry chain. Adds the rtx oracle.
	Retransmit bool
	// InjectDisableRetransmit plants the chain.InjectDisableRetransmit bug
	// on every replica: nodes still answer NACKs but their retransmit
	// buffers silently store nothing, so gap recovery degrades to skip
	// cursors. The intentional defect the rtx oracle must catch
	// (TestExploreCatchesDisabledRetransmit). Applied to all replicas
	// because failover can make any of them a predecessor.
	InjectDisableRetransmit bool
	// InjectNoRevive disables the controller's revival path: a switch that
	// is declared failed during a pause and heartbeats again after resume
	// is never re-added to its groups. The intentional defect for the
	// pause/resume fault class — without revival the evicted switch stops
	// receiving EWO pushes and the counter-totals oracle catches the stale
	// replica (TestExploreCatchesNoRevive).
	InjectNoRevive bool
	// Faults selects the fault set Sweep generates scenarios from. It does
	// not affect Run itself (the scenario already carries its episodes);
	// it lives here so a Failure can reproduce its generation exactly.
	Faults FaultSet
	// Shards runs the cluster on that many parallel simulation shards
	// (0/1: sequential). Results — Log, Failures, everything — are
	// byte-identical across shard counts (TestExploreShardDeterminism), so
	// explorations can use all cores without weakening reproducibility.
	Shards int
	// BlackBox arms the flight recorder: the run carries a trace ring and a
	// metrics timeline, and a failing Result gets the rendered record (last
	// trace events, final snapshot, timeline tail) in Result.BlackBox.
	// Instrumentation is passive — Log and Failures stay byte-identical to an
	// unarmed run — but it costs tracer writes on every event, so sweeps run
	// unarmed and re-run only failing seeds with the recorder on.
	BlackBox bool
}

// Flight-recorder shape: enough trace tail to see the failure's final
// moments, a timeline sampled fine enough to catch the failing window.
const (
	blackBoxTraceCap  = 1 << 18
	blackBoxLastN     = 64
	blackBoxInterval  = 500 * time.Microsecond
	blackBoxTailRows  = 32
	blackBoxTimelineW = 8
)

// Result is the outcome of one scenario run.
type Result struct {
	Scenario Scenario
	// Failures lists oracle violations, each prefixed "oracle <name>:".
	// Empty means the run passed.
	Failures []string
	// Log is the deterministic scenario + execution + oracle report; for a
	// given (Scenario, RunOptions) it is byte-identical across runs.
	// RunOptions.BlackBox does not change it.
	Log string
	// BlackBox is the rendered flight record of a failing run when
	// RunOptions.BlackBox was set ("" otherwise): the last trace events, the
	// final metrics snapshot, and the timeline tail.
	BlackBox string

	// Summary facts for callers' own assertions (the torture test).
	Recoveries   uint64
	Revivals     uint64 // evicted switches re-admitted after pause/resume
	ChainMembers []uint16
	Committed    int
	BadKey       uint64
	BadHistory   []lincheck.Op
}

// OracleUndecided names the verdict of a strict run whose history the
// linearizability checker could not decide within its budget: a failure —
// undecided is never green — under a name no violation carries.
const OracleUndecided = "lincheck-undecided"

// Failed reports whether any oracle was violated.
func (r *Result) Failed() bool { return len(r.Failures) > 0 }

// FirstOracle returns the name of the first violated oracle ("" if none) —
// the shrinker's comparison key, so a minimized scenario still fails for
// the original reason rather than a different one.
func (r *Result) FirstOracle() string {
	if len(r.Failures) == 0 {
		return ""
	}
	s := strings.TrimPrefix(r.Failures[0], "oracle ")
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[:i]
	}
	return s
}

// strongWrite tracks one submitted SRO write through to the history.
type strongWrite struct {
	key       uint64
	val       string
	start     int64
	end       int64
	resolved  bool
	committed bool
}

// Run executes a scenario and checks every oracle. It is deterministic:
// the cluster engine is seeded from the scenario seed and the workload uses
// its own seed-derived RNG, so equal inputs give byte-identical results.
func Run(sc Scenario, opt RunOptions) *Result {
	sc = sc.Normalize()
	res := &Result{Scenario: sc}
	var log strings.Builder
	log.WriteString(sc.Log())
	fail := func(oracle, format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf("oracle %s: %s", oracle, fmt.Sprintf(format, args...)))
	}

	link := sc.Link
	c, err := swishmem.New(swishmem.Config{
		Switches: sc.Switches, Spares: sc.Spares, Seed: sc.Seed,
		Link: &link, HeartbeatPeriod: heartbeatPeriod, Shards: opt.Shards,
	})
	if err != nil {
		fail("setup", "cluster: %v", err)
		res.Log = log.String()
		return res
	}
	defer c.Close()
	if opt.BlackBox {
		c.EnableTracing(blackBoxTraceCap)
	}
	strong, err := c.DeclareStrong("s", swishmem.StrongOptions{
		Capacity: strongCapacity, ValueWidth: 8, RetryTimeout: retryTimeout,
		Retransmit: opt.Retransmit})
	if err == nil {
		_, err = c.DeclareCounter("c", swishmem.EventualOptions{
			Capacity: 128, SyncPeriod: syncPeriod})
	}
	var lww []*swishmem.EventualRegister
	if err == nil {
		lww, err = c.DeclareEventual("l", swishmem.EventualOptions{
			Capacity: 64, ValueWidth: 8, SyncPeriod: syncPeriod})
	}
	if err != nil {
		fail("setup", "declare: %v", err)
		res.Log = log.String()
		return res
	}
	ctrID, _ := c.RegisterID("c")
	lwwID, _ := c.RegisterID("l")
	var ctr []*swishmem.CounterRegister
	for i := 0; i < sc.Switches; i++ {
		h, err := c.Instance(i).CounterHandle(ctrID)
		if err != nil {
			fail("setup", "counter handle %d: %v", i, err)
			res.Log = log.String()
			return res
		}
		ctr = append(ctr, h)
	}
	if opt.InjectSkipForward > 0 {
		strong[0].Node().InjectSkipForward(opt.InjectSkipForward)
		fmt.Fprintf(&log, "inject skip-forward=%d at initial head\n", opt.InjectSkipForward)
	}
	if opt.InjectDisableRetransmit {
		for i := range strong {
			strong[i].Node().InjectDisableRetransmit()
		}
		fmt.Fprintf(&log, "inject disable-retransmit at all replicas\n")
	}
	if opt.InjectNoRevive && c.Controller() != nil {
		c.Controller().DisableRevival()
		fmt.Fprintf(&log, "inject no-revive at controller\n")
	}
	if opt.BlackBox {
		// The timeline goes nowhere; the flight record keeps only the tail
		// ring. Streaming after the declares so chain/EWO metrics are sampled.
		if _, err := c.StreamMetrics(io.Discard, blackBoxInterval, swishmem.StreamOptions{
			Windows: blackBoxTimelineW, Tail: blackBoxTailRows,
		}); err != nil {
			fail("setup", "stream: %v", err)
		}
	}
	c.RunFor(settleTime)

	// The workload RNG is decoupled from the engine RNG on purpose: shrink
	// mutations change fabric event interleavings, but the op sequence for a
	// seed stays fixed, which keeps shrunk scenarios comparable.
	wrng := rand.New(rand.NewSource(sc.Seed*6364136223846793005 + 1442695040888963407))
	// now is for DRIVER use only (between runs, when all shard clocks
	// agree). Completion callbacks run on the shard of the switch that was
	// driven and must read that switch's own clock — in a sharded run the
	// shard-0 clock is mid-window and touching it would race.
	now := func() int64 { return int64(c.Engine().Now()) }
	swClock := func(i int) func() int64 {
		eng := c.Switch(i).Engine()
		return func() int64 { return int64(eng.Now()) }
	}

	alive := make([]int, 0, sc.Switches) // replicas accepting workload ops
	for i := 0; i < sc.Switches; i++ {
		alive = append(alive, i)
	}
	removeAlive := func(sw int) {
		for i, a := range alive {
			if a == sw {
				alive = append(alive[:i:i], alive[i+1:]...)
				return
			}
		}
	}
	calm := swishmem.LinkProfile{Latency: sc.Link.Latency, BandwidthBps: sc.Link.BandwidthBps}

	var (
		writes     []*strongWrite
		rec        lincheck.Recorder
		ctrExpect  = make([]uint64, counterKeys)
		nStrongW   int
		nStrongR   int
		nCtr       int
		nLWW       int
		crashCount int
		joinedAbs  []int // absolute switch indices of joined spares
		pausedAbs  []int // switches that went through pause/resume
	)
	// Read completions land on the shard of the switch that served them, so
	// each switch records into its own recorder/counter; they merge into rec
	// in switch order after the run — an order independent of shard layout.
	readRecs := make([]lincheck.Recorder, sc.Switches)
	nReadsBy := make([]int, sc.Switches)

	// Episode bookkeeping: start events at AtStep, end events after Steps.
	// The end event carries the whole episode: one-way outages must restore
	// the exact directed link they cut, pauses must resume their victim.
	type endEvent struct {
		step int
		e    Episode
	}
	var ends []endEvent
	epi := 0

	valHex := func(b []byte) string {
		if len(b) == 0 {
			return lincheck.Initial
		}
		return fmt.Sprintf("%x", b)
	}

	for step := 0; step < sc.Steps; step++ {
		for len(ends) > 0 && ends[0].step == step {
			ee := ends[0].e
			switch ee.Kind {
			case PartitionFault:
				c.HealPartition()
				fmt.Fprintf(&log, "t=%s heal\n", c.Now())
			case LossBurst:
				c.SetAllLinks(sc.Link)
				fmt.Fprintf(&log, "t=%s lossburst-end\n", c.Now())
			case NthLossBurst:
				c.SetAllLinks(sc.Link)
				fmt.Fprintf(&log, "t=%s nthloss-end\n", c.Now())
			case CorruptBurst:
				c.SetAllLinks(sc.Link)
				fmt.Fprintf(&log, "t=%s corrupt-end\n", c.Now())
			case OneWayOutage:
				c.SetOneWayLink(ee.A[0], ee.B[0], sc.Link)
				fmt.Fprintf(&log, "t=%s oneway-end\n", c.Now())
			case PauseResume:
				c.ResumeSwitch(ee.Switch)
				fmt.Fprintf(&log, "t=%s resume switch=%d\n", c.Now(), ee.Switch)
				// Rejoin margin: heartbeats restart, an evicted victim is
				// revived and pushed current configs, frozen backlog drains.
				c.RunFor(gossipMargin)
			}
			ends = ends[1:]
		}
		for epi < len(sc.Episodes) && sc.Episodes[epi].AtStep == step {
			e := sc.Episodes[epi]
			epi++
			switch e.Kind {
			case Crash:
				c.RunFor(gossipMargin)
				// Submit writes at the victim moments before it dies: their
				// acknowledgements can never be observed, so they enter the
				// history as pending operations — the chain may or may not
				// have applied them, and the linearizability oracle must
				// accept both outcomes (and reject impossible mixtures).
				for dw := 0; dw < 2; dw++ {
					nStrongW++
					key := uint64(wrng.Intn(sc.Keys))
					v := uint64(step)<<16 | uint64(e.Switch)<<8 | uint64(0xd0+dw)
					buf := make([]byte, 8)
					binary.BigEndian.PutUint64(buf, v)
					sw := &strongWrite{key: key, val: valHex(buf), start: now()}
					writes = append(writes, sw)
					clock := swClock(e.Switch)
					strong[e.Switch].Write(key, buf, func(ok bool) {
						sw.resolved, sw.committed, sw.end = true, ok, clock()
					})
				}
				c.RunFor(50 * time.Microsecond) // let them reach (part of) the chain
				c.FailSwitch(e.Switch)
				removeAlive(e.Switch)
				crashCount++
				fmt.Fprintf(&log, "t=%s crash switch=%d\n", c.Now(), e.Switch)
			case PartitionFault:
				c.Partition(e.A, e.B)
				ends = append(ends, endEvent{e.AtStep + e.Steps, e})
				fmt.Fprintf(&log, "t=%s partition a=%v b=%v\n", c.Now(), e.A, e.B)
			case LossBurst:
				burst := sc.Link
				burst.LossRate = e.Loss
				c.SetAllLinks(burst)
				ends = append(ends, endEvent{e.AtStep + e.Steps, e})
				fmt.Fprintf(&log, "t=%s lossburst loss=%.3f\n", c.Now(), e.Loss)
			case NthLossBurst:
				burst := sc.Link
				burst.LossEveryN = e.N
				c.SetAllLinks(burst)
				ends = append(ends, endEvent{e.AtStep + e.Steps, e})
				fmt.Fprintf(&log, "t=%s nthloss n=%d\n", c.Now(), e.N)
			case CorruptBurst:
				burst := sc.Link
				burst.CorruptRate = e.Loss
				c.SetAllLinks(burst)
				ends = append(ends, endEvent{e.AtStep + e.Steps, e})
				fmt.Fprintf(&log, "t=%s corrupt rate=%.3f\n", c.Now(), e.Loss)
			case OneWayOutage:
				p := sc.Link
				p.Deny = swishmem.DenyBlackhole
				if e.Reject {
					p.Deny = swishmem.DenyReject
				}
				c.SetOneWayLink(e.A[0], e.B[0], p)
				ends = append(ends, endEvent{e.AtStep + e.Steps, e})
				fmt.Fprintf(&log, "t=%s oneway from=%d to=%d reject=%v\n", c.Now(), e.A[0], e.B[0], e.Reject)
			case PauseResume:
				// The victim freezes mid-protocol: heartbeats stop (the GC
				// pause trap for the failure detector), its queues backlog,
				// and on resume everything replays. It is retired from the
				// workload permanently — until the controller re-admits it a
				// rejoining replica's local reads are stale — but the state
				// oracles still cover it (counter totals include pausedAbs).
				c.PauseSwitch(e.Switch)
				removeAlive(e.Switch)
				pausedAbs = append(pausedAbs, e.Switch)
				ends = append(ends, endEvent{e.AtStep + e.Steps, e})
				fmt.Fprintf(&log, "t=%s pause switch=%d\n", c.Now(), e.Switch)
			case Join:
				abs := sc.Switches + e.Switch
				if err := c.JoinCounterGroup("c", abs); err != nil {
					fail("setup", "join spare %d: %v", abs, err)
				} else {
					joinedAbs = append(joinedAbs, abs)
					fmt.Fprintf(&log, "t=%s join spare=%d\n", c.Now(), abs)
				}
			}
		}

		w := alive[wrng.Intn(len(alive))]
		switch r := wrng.Intn(100); {
		case r < 30: // SRO write
			nStrongW++
			key := uint64(wrng.Intn(sc.Keys))
			v := uint64(step)<<16 | uint64(w)<<8 | uint64(wrng.Intn(256))
			buf := make([]byte, 8)
			binary.BigEndian.PutUint64(buf, v)
			sw := &strongWrite{key: key, val: valHex(buf), start: now()}
			writes = append(writes, sw)
			clock := swClock(w)
			strong[w].Write(key, buf, func(ok bool) {
				sw.resolved, sw.committed, sw.end = true, ok, clock()
			})
		case r < 60: // SRO read
			nStrongR++
			key := uint64(wrng.Intn(sc.Keys))
			start := now()
			rrec, clock, wc := &readRecs[w], swClock(w), w
			strong[w].Read(key, func(val []byte, ok bool) {
				nReadsBy[wc]++
				v := lincheck.Initial
				if ok {
					v = valHex(val)
				}
				rrec.Add(key, lincheck.Op{Start: start, End: clock(), Write: false, Value: v})
			})
		case r < 85: // EWO counter add
			nCtr++
			key := uint64(wrng.Intn(counterKeys))
			d := uint64(wrng.Intn(5) + 1)
			ctr[w].Add(key, d)
			ctrExpect[key] += d
		default: // EWO LWW write
			nLWW++
			key := uint64(wrng.Intn(lwwKeys))
			buf := []byte(fmt.Sprintf("%08x", wrng.Uint32()))
			lww[w].Write(key, buf)
		}
		c.RunFor(sc.OpGap)
	}

	// Quiesce on a healed, calm fabric: outstanding retries resolve, the
	// controller finishes failover and recovery, EWO synchronization
	// converges. Calming the links is what makes the convergence oracles
	// deterministic rather than probabilistic.
	c.HealPartition()
	c.SetAllLinks(calm)
	c.RunFor(quiesceTime)

	// Merge the per-switch read histories in switch order (shard-layout
	// independent), then fold the write tracker in. A write whose callback
	// never fired, or that exhausted its retries, may or may not have taken
	// effect (the chain can have applied it while the ack path failed):
	// both are pending operations for the checker.
	nReads := 0
	for i := range readRecs {
		nReads += nReadsBy[i]
		readRecs[i].Each(func(key uint64, op lincheck.Op) { rec.Add(key, op) })
	}
	committedKeys := make(map[uint64]bool)
	for _, sw := range writes {
		if sw.resolved && sw.committed {
			rec.Add(sw.key, lincheck.Op{Start: sw.start, End: sw.end, Write: true, Value: sw.val})
			committedKeys[sw.key] = true
			res.Committed++
		} else {
			rec.Add(sw.key, lincheck.Pending(sw.start, true, sw.val))
		}
	}
	fmt.Fprintf(&log, "run strongw=%d strongr=%d ctr=%d lww=%d committed=%d readsok=%d crashes=%d\n",
		nStrongW, nStrongR, nCtr, nLWW, res.Committed, nReads, crashCount)

	strict := sc.Strict()

	// --- oracle: drain --- every writer control plane resolved all writes.
	for _, i := range alive {
		if n := strong[i].Node().OutstandingWrites(); n != 0 {
			fail("drain", "switch %d still has %d outstanding writes after quiesce", i, n)
		}
	}

	// --- oracle: rtx --- (retransmit backend only) gap recovery is real.
	// Any switch that ever answered a NACK must actually have stored frames
	// in its retransmit buffer — a node that serves NACKs from an empty
	// buffer (InjectDisableRetransmit) forces every gap into an abandon
	// cursor. And after the calm quiesce no hold-back buffer may still hold
	// frames: every gap must have been repaired or explicitly abandoned.
	if opt.Retransmit {
		for _, i := range alive {
			cs := strong[i].Node().Counters()
			if cs.NacksReceived.Value() > 0 && cs.RtxStored.Value() == 0 {
				fail("rtx", "switch %d answered %d NACKs with an empty retransmit buffer",
					i, cs.NacksReceived.Value())
			}
			if held := strong[i].Node().HeldFrames(); held != 0 {
				fail("rtx", "switch %d still holds %d out-of-order frames after quiesce", i, held)
			}
		}
	}

	// --- oracle: chain --- reconfiguration safety. Configs travel the
	// reliable control channel, so after quiesce every surviving member
	// holds the current membership: it must have >= 2 live switches (the
	// generator never crashes below two survivors) and list no dead ones.
	cc := strong[alive[0]].Node().Chain()
	res.ChainMembers = append(res.ChainMembers, cc.Members...)
	if len(cc.Members) < 2 {
		fail("chain", "chain shrank to %v", cc.Members)
	}
	memberIdx := make([]int, 0, len(cc.Members))
	for _, m := range cc.Members {
		idx := int(m) - 1 // switch i has fabric address i+1
		memberIdx = append(memberIdx, idx)
		if c.Switch(idx).Failed() {
			fail("chain", "dead switch %d still a chain member (%v)", idx, cc.Members)
		}
	}
	if c.Controller() != nil {
		res.Recoveries = c.Controller().Stats.Recoveries.Value()
		res.Revivals = c.Controller().Stats.Revivals.Value()
		want := crashCount
		if want > sc.Spares {
			want = sc.Spares
		}
		if got := int(res.Recoveries); got < want {
			fail("chain", "recoveries = %d, want >= %d (crashes=%d spares=%d)",
				got, want, crashCount, sc.Spares)
		}
	}

	// --- oracle: lincheck --- per-key linearizability of the SRO history.
	// Only asserted in strict scenarios: under loss or partition the chain
	// package documents a bounded monotone-apply anomaly (an accepted
	// protocol behavior, not a bug).
	if strict {
		switch bad, hist, v := rec.CheckAllDetailed(); v {
		case lincheck.Violation:
			res.BadKey, res.BadHistory = bad, hist
			fail("lincheck", "key %d history not linearizable (%d ops): %v", bad, len(hist), hist)
		case lincheck.Undecided:
			// Not a pass and not a counterexample: its own oracle name keeps
			// the run red while the shrinker, which matches names, never
			// takes an undecided variant for a reproduction of a violation.
			res.BadKey, res.BadHistory = bad, hist
			fail(OracleUndecided, "key %d: checker budget exhausted (%d ops): %v", bad, len(hist), hist)
		}
	}

	// --- oracle: durability --- no committed write lost across failover:
	// every key with a committed write is present on every current chain
	// member (commit means the write traversed the whole chain; recovery
	// snapshots carry it to promoted spares).
	keys := make([]uint64, 0, len(committedKeys))
	for k := range committedKeys {
		keys = append(keys, k)
	}
	chainViews := make([]ChainView, 0, len(memberIdx))
	for _, idx := range memberIdx {
		i := idx
		chainViews = append(chainViews, ChainView{
			Name: fmt.Sprintf("switch %d", i),
			Get:  func(key uint64) ([]byte, bool) { return chainGet(c, i, key) },
		})
	}
	for _, f := range OracleDurability(keys, chainViews) {
		fail("durability", "%s", f)
	}
	// --- oracle: agreement --- (strict only) all members hold the same
	// bytes: lossless forwarding applies every committed write everywhere,
	// so survivors cannot diverge.
	if strict {
		for _, f := range OracleAgreement(keys, chainViews) {
			fail("agreement", "%s", f)
		}
	}

	// --- oracle: counter --- exact totals: every increment ever issued is
	// in the merged sum on every group member (alive replicas + joined
	// spares), and their full digests agree.
	// Paused-and-resumed switches are retired from the workload but NOT from
	// the oracles: after the calm quiesce they must hold the full counter
	// state like everyone else — either the pause was short of the failure
	// timeout (never evicted, kept receiving pushes) or the controller
	// revived them on resume. This is the assertion that catches a failure
	// detector with no revival path (InjectNoRevive).
	ctrNodes := append([]int{}, alive...)
	ctrNodes = append(ctrNodes, joinedAbs...)
	ctrNodes = append(ctrNodes, pausedAbs...)
	var ctrViews []EWOView
	for _, i := range ctrNodes {
		h, err := c.Instance(i).CounterHandle(ctrID)
		if err != nil {
			fail("counter", "handle on switch %d: %v", i, err)
			continue
		}
		ctrViews = append(ctrViews, EWOView{
			Name:   fmt.Sprintf("switch %d", i),
			Sum:    h.Sum,
			Digest: h.Node().StateDigest,
		})
	}
	for _, f := range OracleCounterTotals(ctrExpect, ctrViews) {
		fail("counter", "%s", f)
	}
	for _, f := range OracleConvergence(ctrViews) {
		fail("counter", "%s", f)
	}

	// --- oracle: lww --- convergence: after the calm quiesce all alive
	// replicas hold identical LWW state.
	var lwwViews []EWOView
	for _, i := range alive {
		h, err := c.Instance(i).EventualHandle(lwwID)
		if err != nil {
			fail("lww", "handle on switch %d: %v", i, err)
			continue
		}
		lwwViews = append(lwwViews, EWOView{
			Name:   fmt.Sprintf("switch %d", i),
			Digest: h.Node().StateDigest,
		})
	}
	for _, f := range OracleConvergence(lwwViews) {
		fail("lww", "%s", f)
	}

	// --- oracle: memory --- every switch respects its SRAM budget, and
	// identical declarations cost identical SRAM everywhere.
	first := c.MemoryUsed(0)
	for i := 0; i < sc.Switches+sc.Spares; i++ {
		if free := c.Switch(i).MemoryFree(); free < 0 {
			fail("memory", "switch %d over budget by %d bytes", i, -free)
		}
		if used := c.MemoryUsed(i); used != first {
			fail("memory", "switch %d uses %d bytes, switch 0 uses %d", i, used, first)
		}
	}

	for _, f := range res.Failures {
		log.WriteString("FAIL ")
		log.WriteString(f)
		log.WriteByte('\n')
	}
	if len(res.Failures) == 0 {
		log.WriteString("ok all oracles\n")
	}
	if opt.BlackBox && len(res.Failures) > 0 {
		res.BlackBox = c.FlightRecord(blackBoxLastN).String()
	}
	res.Log = log.String()
	return res
}

// chainGet reads the local replica of the "s" register on switch idx.
func chainGet(c *swishmem.Cluster, idx int, key uint64) ([]byte, bool) {
	id, _ := c.RegisterID("s")
	h, err := c.Instance(idx).StrongHandle(id)
	if err != nil {
		return nil, false
	}
	return h.Node().Get(key)
}
