package livecluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"swishmem/internal/explore"
	"swishmem/internal/netem"
	"swishmem/internal/netem/live"
	"swishmem/internal/obs"
	"swishmem/internal/packet"
	"swishmem/internal/workload"
)

// Flight-recorder and timeline shape for soak runs.
const (
	soakTraceCap  = 1 << 14
	soakLastN     = 64
	soakTailRows  = 16
	soakTimelineW = 8
)

// flowHash maps a 5-tuple onto a stable 64-bit value (FNV-1a) so a trace
// packet lands on the same member/key in every run.
func flowHash(k packet.FlowKey) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	src, dst := k.Src.As4(), k.Dst.As4()
	for _, b := range src {
		mix(b)
	}
	for _, b := range dst {
		mix(b)
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(byte(k.Proto))
	return h
}

// SoakConfig parameterizes a loopback live-cluster soak.
type SoakConfig struct {
	// Members is the cluster size. Default 3.
	Members int
	// Seed drives the workload op sequence and per-node fault sampling.
	Seed int64
	// Budget is the wall-clock workload duration. Default 2s.
	Budget time.Duration
	// Loss is the injected outbound loss rate on every member. Default 0.05
	// (the acceptance floor).
	Loss float64
	// CorruptRate adds payload bit-corruption to every member's egress: a
	// corrupted frame reaches the receiver with its 2-byte sender header
	// intact and must be counted as a clean decode error — never delivered
	// as a wrong message, never a panic. Default 0 (off).
	CorruptRate float64
	// LossEveryN, when >= 2, deterministically kills every Nth outbound
	// datagram per destination on every member (a counter, not a coin — the
	// cadence that random loss at the same rate never produces). Default 0.
	LossEveryN int
	// AsymLoss, when > 0, overrides member 0's egress to the last member
	// with this loss rate while the reverse direction keeps the base
	// profile: a per-direction (asymmetric) link. Default 0 (symmetric).
	AsymLoss float64
	// PauseFor, when > 0, freezes the last member mid-workload (the GC
	// pause / SIGSTOP process fault: dispatch parks, sends stop — including
	// its failure-detector heartbeats — inbound backlogs) and resumes it
	// after this long, replaying the backlog. Keep it under the
	// controller's failure timeout (10 heartbeat periods = 200ms): the
	// detector must ride the pause out without evicting, and every oracle
	// must still pass over the replayed state. Default 0 (off).
	PauseFor time.Duration
	// Trace, when non-empty, drives the workload from a trafficgen packet
	// trace instead of the synthetic op mix: each packet maps
	// deterministically (by flow hash) onto a member and an op — flow
	// starts become strong writes (connection state), flow ends become LWW
	// writes (last-seen state), and every other packet becomes a counter
	// increment (per-flow packet counting, the paper's DDoS use case). The
	// trace loops until Budget elapses.
	Trace workload.Trace
	// Timeline, when non-nil, receives a continuous JSONL metrics timeline:
	// one schema header + row stream per node (the controller and every
	// member), each row tagged with its node label, sampled every
	// SampleInterval of wall clock under that node's pump lock. Controller
	// rows carry a soak.members_alive gauge (the availability series);
	// member rows carry transport counter deltas (pps) and per-window
	// chain write-latency quantiles.
	Timeline io.Writer
	// SampleInterval paces the timeline sampler. Default 100ms.
	SampleInterval time.Duration
	// Stop, when non-nil, ends the workload phase early when it becomes
	// readable (e.g. closed on SIGINT): the run still calms the network,
	// quiesces, runs the oracles, and renders its telemetry.
	Stop <-chan struct{}
}

// The soak's fixed fault model beside Loss (200µs latency, 100µs jitter, 1%
// dup, 1% reorder), its op pacing and its strong-register key range.
const (
	soakLatency     = 200 * time.Microsecond
	soakJitter      = 100 * time.Microsecond
	soakDupRate     = 0.01
	soakReorderRate = 0.01
	soakOpInterval  = 300 * time.Microsecond
	soakKeys        = 32
)

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Members == 0 {
		c.Members = 3
	}
	if c.Budget == 0 {
		c.Budget = 2 * time.Second
	}
	if c.Loss == 0 {
		c.Loss = 0.05
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 100 * time.Millisecond
	}
	return c
}

// SoakReport is the outcome of one soak run.
type SoakReport struct {
	// Failures lists oracle violations ("oracle <name>: ..."); empty = pass.
	Failures []string
	// Workload totals.
	StrongWrites int
	Committed    int
	CounterAdds  int
	LWWWrites    int
	// Metrics is the rendered transport/fabric/protocol metrics snapshot.
	Metrics string
	// TimelineRows counts the rows emitted to SoakConfig.Timeline (0 when no
	// timeline writer was configured).
	TimelineRows int
	// PauseRounds counts completed pause/resume rounds (1 when
	// SoakConfig.PauseFor was set and the victim was frozen and resumed).
	PauseRounds int
	// TxCorrupted and RxDecodeErr total, across every node, the corrupted
	// frames injected on egress and the frames rejected at decode — the
	// byte-fault pipeline's visible ends.
	TxCorrupted uint64
	RxDecodeErr uint64
	// LocalDropped totals live.fabric.local_dropped over the members:
	// messages a switch sent to an address its fabric had no relay for (a
	// peer not learned yet, or evicted) or that met a failed switch.
	LocalDropped uint64
	// FlightRecord is the rendered flight record of a failing run ("" on
	// pass): the last trace events across every node, the final metrics
	// snapshot, and the timeline tail.
	FlightRecord string
}

// Failed reports whether any oracle was violated.
func (r *SoakReport) Failed() bool { return len(r.Failures) > 0 }

// soakWrite tracks one strong write through its commit callback (touched
// only on its member's pump goroutine until the final collection Call).
type soakWrite struct {
	key       uint64
	resolved  bool
	committed bool
}

// memberTrack is per-member workload bookkeeping, owned by that member's
// pump goroutine.
type memberTrack struct {
	writes   []*soakWrite
	ctrAdded [CounterKeys]uint64
}

// Soak runs a full live-cluster soak on loopback: boot a controller and
// Members member processes-worth of fabrics, drive a mixed workload under
// the injected fault model for Budget — optionally extended with payload
// corruption, deterministic every-Nth loss, an asymmetric link leg, and a
// process pause/resume round — calm the network, quiesce, and run the
// explore durability/counter-total/convergence oracles over the surviving
// state. The linearizability and agreement oracles are strict-mode
// (lossless) checks in the explorer and do not apply under injected loss.
func Soak(cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	rep := &SoakReport{}
	fail := func(oracle, format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf("oracle %s: %s", oracle, fmt.Sprintf(format, args...)))
	}

	addrs := make([]netem.Addr, cfg.Members)
	for i := range addrs {
		addrs[i] = netem.Addr(i + 1)
	}
	ctrlFab, ctl, err := NewLiveController(cfg.Seed, "", addrs, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("livecluster: controller: %w", err)
	}
	defer ctrlFab.Stop()
	// Every node carries a small trace ring from boot: if an oracle fails,
	// the flight record dumps each ring's tail. Attached before Start, while
	// setup is still single-threaded.
	tracers := []*obs.Tracer{obs.NewTracer(soakTraceCap)}
	ctrlFab.Engine().SetTracer(tracers[0])
	soakStart := time.Now()
	ctrlFab.Start()

	faulty := netem.LinkProfile{
		Latency:     soakLatency,
		Jitter:      soakJitter,
		LossRate:    cfg.Loss,
		DupRate:     soakDupRate,
		ReorderRate: soakReorderRate,
		CorruptRate: cfg.CorruptRate,
		LossEveryN:  cfg.LossEveryN,
	}
	members := make([]*Member, cfg.Members)
	for i := range members {
		m, err := NewMember(MemberConfig{
			Addr:         addrs[i],
			Seed:         cfg.Seed + int64(i)*7919,
			ControllerEP: ctrlFab.AddrPort(),
			Profile:      faulty,
		})
		if err != nil {
			for _, prev := range members {
				if prev != nil {
					prev.Stop()
				}
			}
			return nil, fmt.Errorf("livecluster: member %d: %w", i, err)
		}
		members[i] = m
		tr := obs.NewTracer(soakTraceCap)
		m.Fabric.Engine().SetTracer(tr)
		tracers = append(tracers, tr)
		m.Start()
	}
	defer func() {
		for _, m := range members {
			m.Stop()
		}
	}()
	// Asymmetric leg: one direction of one link degrades beyond the base
	// profile; the reverse path stays at the base. Per-peer egress override,
	// so exactly member0 -> last is shaped.
	asymPeer := addrs[cfg.Members-1]
	if cfg.AsymLoss > 0 && cfg.Members >= 2 {
		ap := faulty
		ap.LossRate = cfg.AsymLoss
		members[0].Fabric.Node().SetPeerProfile(asymPeer, ap)
	}

	// Phase 1: bootstrap. Every member must hold a chain config and a full
	// group before the workload starts.
	if err := waitConfigured(members, 30*time.Second); err != nil {
		return nil, err
	}

	// Timeline sampler: one stream per node, every tick wrapped in that
	// node's Fabric.Call so registry reads serialize with its pump. The
	// sampler is the only goroutine flushing to cfg.Timeline, so rows from
	// different nodes interleave at line granularity only.
	var (
		streams    []*obs.Stream
		stopSample chan struct{}
		sampleDone chan struct{}
	)
	if cfg.Timeline != nil {
		ctrlReg := obs.NewRegistry()
		ctrlFab.RegisterMetrics(ctrlReg, "node=ctrl")
		ctrlReg.AddGaugeFunc("soak.members_alive", "node=ctrl",
			func() float64 { return float64(len(ctl.AliveMembers())) })
		streamOpts := func(node string) obs.StreamConfig {
			return obs.StreamConfig{
				Interval: cfg.SampleInterval, Windows: soakTimelineW,
				Node: node, Tail: soakTailRows,
			}
		}
		streams = append(streams, obs.NewStream(ctrlReg, cfg.Timeline, streamOpts("ctrl")))
		for i, m := range members {
			mreg := obs.NewRegistry()
			m.RegisterMetrics(mreg, fmt.Sprintf("node=%d", i))
			streams = append(streams, obs.NewStream(mreg, cfg.Timeline, streamOpts(strconv.Itoa(i))))
		}
		stopSample, sampleDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(sampleDone)
			ticker := time.NewTicker(cfg.SampleInterval)
			defer ticker.Stop()
			for {
				select {
				case <-stopSample:
					return
				case <-ticker.C:
					ts := time.Since(soakStart).Nanoseconds()
					ctrlFab.Call(func() { streams[0].Tick(ts) })
					for i, m := range members {
						s := streams[i+1]
						m.Fabric.Call(func() { s.Tick(ts) })
					}
				}
			}
		}()
	}

	// Phase 2: workload under faults. Ops are posted onto member pumps; all
	// tracking state is owned by the target pump until collection.
	tracks := make([]*memberTrack, cfg.Members)
	for i := range tracks {
		tracks[i] = &memberTrack{}
	}
	wrng := rand.New(rand.NewSource(cfg.Seed*6364136223846793005 + 1442695040888963407))
	postStrong := func(i int, key uint64, v uint64) {
		rep.StrongWrites++
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, v)
		m, tr := members[i], tracks[i]
		sw := &soakWrite{key: key}
		m.Fabric.Post(func() {
			tr.writes = append(tr.writes, sw)
			m.Strong.Write(key, buf, func(ok bool) {
				sw.resolved, sw.committed = true, ok
			})
		})
	}
	postAdd := func(i int, key, d uint64) {
		rep.CounterAdds++
		m, tr := members[i], tracks[i]
		m.Fabric.Post(func() {
			tr.ctrAdded[key] += d
			m.Counter.Add(key, d)
		})
	}
	postLWW := func(i int, key uint64, val []byte) {
		rep.LWWWrites++
		m := members[i]
		m.Fabric.Post(func() { m.LWW.Write(key, val) })
	}
	start := time.Now()
	// Process-level fault: freeze one member a third of the way into the
	// workload, hold it for PauseFor (its heartbeats stop, peers' chain
	// traffic through it backlogs, driver ops lose their transmissions to
	// retry timers), then resume and replay the frozen backlog. The round
	// runs concurrently with the workload; phase 3 joins it before calming
	// the network so the replay burst happens under the faulty profile.
	pauseDone := make(chan struct{})
	if cfg.PauseFor > 0 {
		victim := members[cfg.Members-1]
		go func() {
			defer close(pauseDone)
			time.Sleep(cfg.Budget / 3)
			victim.Fabric.Post(func() { victim.Switch.Pause() })
			time.Sleep(cfg.PauseFor)
			victim.Fabric.Post(func() { victim.Switch.Resume() })
		}()
	} else {
		close(pauseDone)
	}
	stopped := func() bool {
		if cfg.Stop == nil {
			return false
		}
		select {
		case <-cfg.Stop:
			return true
		default:
			return false
		}
	}
	if len(cfg.Trace) > 0 {
		// Trace-driven: packets arrive in trace order at soakOpInterval pacing
		// and map deterministically onto ops; the trace loops until the
		// budget elapses.
		for ti := 0; time.Since(start) < cfg.Budget && !stopped(); ti = (ti + 1) % len(cfg.Trace) {
			tp := &cfg.Trace[ti]
			fk, ok := tp.Pkt.Flow()
			if !ok {
				continue
			}
			h := flowHash(fk)
			i := int(h % uint64(cfg.Members))
			switch {
			case tp.FlowStart: // connection state insert
				postStrong(i, h%uint64(soakKeys), h)
			case tp.FlowEnd: // last-seen state
				postLWW(i, h%LWWKeys, []byte(fmt.Sprintf("%08x", uint32(h))))
			default: // per-flow packet counting (the DDoS use case)
				postAdd(i, h%CounterKeys, 1)
			}
			time.Sleep(soakOpInterval)
		}
	} else {
		for time.Since(start) < cfg.Budget && !stopped() {
			i := wrng.Intn(cfg.Members)
			switch r := wrng.Intn(100); {
			case r < 40:
				postStrong(i, uint64(wrng.Intn(soakKeys)), wrng.Uint64())
			case r < 75:
				postAdd(i, uint64(wrng.Intn(CounterKeys)), uint64(wrng.Intn(5)+1))
			default:
				postLWW(i, uint64(wrng.Intn(LWWKeys)), []byte(fmt.Sprintf("%08x", wrng.Uint32())))
			}
			time.Sleep(soakOpInterval)
		}
	}

	// Phase 3: join the pause round (the victim must be resumed before the
	// quiesce can complete), then calm the network (shaping off, overrides
	// cleared) and quiesce: writer retries resolve and EWO synchronization
	// converges. Calm links are what make the convergence oracles
	// deterministic rather than probabilistic.
	<-pauseDone
	if cfg.PauseFor > 0 {
		victim := members[cfg.Members-1]
		victim.Fabric.Call(func() {
			if victim.Switch.Paused() {
				victim.Switch.Resume()
			}
		})
		rep.PauseRounds = 1
	}
	for _, m := range members {
		m.Fabric.Node().SetProfile(netem.LinkProfile{})
	}
	if cfg.AsymLoss > 0 && cfg.Members >= 2 {
		members[0].Fabric.Node().ClearPeerProfile(asymPeer)
	}
	if err := waitQuiesced(members, 30*time.Second); err != nil {
		return nil, err
	}
	time.Sleep(250 * time.Millisecond) // a few calm sync rounds to converge

	// Phase 4: collect workload tracking and surviving state (one Call per
	// member serializes against its pump).
	var (
		committedKeys = map[uint64]bool{}
		ctrExpect     = make([]uint64, CounterKeys)
	)
	for i, m := range members {
		tr := tracks[i]
		m.Fabric.Call(func() {
			for _, w := range tr.writes {
				if w.resolved && w.committed {
					committedKeys[w.key] = true
					rep.Committed++
				}
			}
			for k, d := range tr.ctrAdded {
				ctrExpect[k] += d
			}
		})
	}
	keys := make([]uint64, 0, len(committedKeys))
	for k := range committedKeys {
		keys = append(keys, k)
	}

	type snapshot struct {
		strong map[uint64][]byte
		sums   [CounterKeys]uint64
		ctrDig map[uint64]string
		lwwDig map[uint64]string
		// retryFires counts the writer retry timers that fired (each either
		// retried or gave up): the member's only aperiodic engine deadlines.
		retryFires uint64
	}
	snaps := make([]snapshot, cfg.Members)
	for i, m := range members {
		snap := &snaps[i]
		m.Fabric.Call(func() {
			snap.strong = make(map[uint64][]byte, len(keys))
			for _, k := range keys {
				if v, ok := m.Strong.Node().Get(k); ok {
					snap.strong[k] = append([]byte(nil), v...)
				}
			}
			for k := range snap.sums {
				snap.sums[k] = m.Counter.Sum(uint64(k))
			}
			snap.ctrDig = m.Counter.Node().StateDigest()
			snap.lwwDig = m.LWW.Node().StateDigest()
			cs := m.Strong.Node().Counters()
			snap.retryFires = cs.Retries.Value() + cs.WritesFailed.Value()
		})
	}

	// Phase 5: oracles over the snapshots.
	chainViews := make([]explore.ChainView, cfg.Members)
	ctrViews := make([]explore.EWOView, cfg.Members)
	lwwViews := make([]explore.EWOView, cfg.Members)
	for i := range snaps {
		snap := &snaps[i]
		chainViews[i] = explore.ChainView{
			Name: fmt.Sprintf("member %d", i),
			Get: func(key uint64) ([]byte, bool) {
				v, ok := snap.strong[key]
				return v, ok
			},
		}
		ctrViews[i] = explore.EWOView{
			Name:   fmt.Sprintf("member %d", i),
			Sum:    func(key uint64) uint64 { return snap.sums[key] },
			Digest: func() map[uint64]string { return snap.ctrDig },
		}
		lwwViews[i] = explore.EWOView{
			Name:   fmt.Sprintf("member %d", i),
			Digest: func() map[uint64]string { return snap.lwwDig },
		}
	}
	for _, f := range explore.OracleDurability(keys, chainViews) {
		fail("durability", "%s", f)
	}
	for _, f := range explore.OracleCounterTotals(ctrExpect, ctrViews) {
		fail("counter", "%s", f)
	}
	for _, f := range explore.OracleConvergence(ctrViews) {
		fail("counter", "%s", f)
	}
	for _, f := range explore.OracleConvergence(lwwViews) {
		fail("lww", "%s", f)
	}

	// Pump-efficiency oracle: a pump round is started either by a signal (a
	// post, an inbound datagram, an egress done list past its 256-message
	// threshold) or by an engine deadline (TimerWakes), and each side has its
	// own bound. Signal-started rounds never exceed the signals; a deadline
	// starts at most one round, so TimerWakes never exceeds the node's real
	// timer rate — the controller's scan and resend tickers, a member's two
	// EWO sync tickers, heartbeat and Hello ticker plus the retry timers that
	// fired. A spinning pump (an idle poll at 5ms burns 200 rounds/s; a
	// busy-loop regression burns far more) or a model delay replayed as a
	// wall-clock timer (one wake per write) blows through one of the two.
	wall := time.Since(soakStart).Seconds()
	checkPump := func(name string, fs live.FabricStats, rx uint64, timers float64) {
		signals := fs.Posts + rx + fs.EgressMsgs/128 + 100
		if woken := fs.PumpRounds - fs.TimerWakes; woken > signals {
			fail("pump", "%s: %d signal-started pump rounds > budget %d (posts=%d rx=%d wall=%.1fs): pump is spinning",
				name, woken, signals, fs.Posts, rx, wall)
		}
		if budget := uint64(timers) + 100; fs.TimerWakes > budget {
			fail("pump", "%s: %d timer-started pump rounds > budget %d (wall=%.1fs): more wakes than the node has timers",
				name, fs.TimerWakes, budget, wall)
		}
	}
	hz := func(period time.Duration) float64 { return float64(time.Second) / float64(period) }
	checkPump("ctrl", ctrlFab.FStats(), ctrlFab.Node().Stats().Received,
		wall*(hz(20*time.Millisecond)+hz(100*time.Millisecond))) // controller.LiveConfig's defaults
	mc := MemberConfig{}.withDefaults()
	for i, m := range members {
		checkPump(fmt.Sprintf("member %d", i), m.Fabric.FStats(), m.Fabric.Node().Stats().Received,
			wall*(2*hz(mc.SyncPeriod)+hz(mc.HeartbeatPeriod)+hz(mc.HelloPeriod))+float64(snaps[i].retryFires))
	}

	// Wind down telemetry: stop the sampler, flush the streams, then stop
	// every pump (Stop is idempotent; the deferred Stops become no-ops).
	// With all pumps parked, registries and tracer rings are free to read
	// from this goroutine.
	if stopSample != nil {
		close(stopSample)
		<-sampleDone
	}
	var timelineTail []string
	for _, s := range streams {
		s.Close()
		rep.TimelineRows += s.Rows()
		timelineTail = append(timelineTail, s.Tail()...)
	}
	ctrlFab.Stop()
	for _, m := range members {
		m.Stop()
	}
	rep.RxDecodeErr = ctrlFab.Node().Stats().DecodeErr
	for _, m := range members {
		s := m.Fabric.Node().Stats()
		rep.TxCorrupted += s.TxCorrupted
		rep.RxDecodeErr += s.DecodeErr
		rep.LocalDropped += m.Fabric.Network().Totals().MsgsDropped // pumps are stopped
	}

	final := obs.NewRegistry()
	ctrlFab.RegisterMetrics(final, "node=ctrl")
	for i, m := range members {
		m.RegisterMetrics(final, fmt.Sprintf("node=%d", i))
	}
	var mb strings.Builder
	final.Snapshot().WriteText(&mb)
	rep.Metrics = mb.String()

	if rep.Failed() {
		fr := obs.NewFlightRecord(soakLastN, final.Snapshot(), timelineTail, tracers...)
		rep.FlightRecord = fr.String()
	}
	return rep, nil
}

// waitConfigured polls until every member holds the initial chain + group
// configuration (epoch >= 1, full group).
func waitConfigured(members []*Member, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ready := 0
		for _, m := range members {
			var ok bool
			m.Fabric.Call(func() {
				ok = m.Strong.Node().Chain().Epoch >= 1 &&
					len(m.Counter.Node().Group()) == len(members)
			})
			if ok {
				ready++
			}
		}
		if ready == len(members) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("livecluster: bootstrap timeout: %d/%d members configured", ready, len(members))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitQuiesced polls until no member has outstanding chain writes.
func waitQuiesced(members []*Member, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		for _, m := range members {
			var n int
			m.Fabric.Call(func() { n = m.Strong.Node().OutstandingWrites() })
			pending += n
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("livecluster: quiesce timeout: %d writes outstanding", pending)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
