package main

import (
	"fmt"
	"time"

	"swishmem"
	"swishmem/internal/sim"
	"swishmem/internal/workload"
)

// simRun replays the ddos trace through an 8-switch simulated cluster: every
// packet becomes a sketch update and an EWO multicast to seven peers, so
// sim + netem + pisa + nf/ddos do the work and no socket is touched.
type simRun struct {
	c     *swishmem.Cluster
	dets  []*swishmem.DDoSDetector
	trace workload.Trace
	inj   []func() // bound once per trace entry: inject it at its switch

	cursor   int
	pass     sim.Duration // virtual offset of the current pass over the trace
	injected uint64
}

func newSimRun(seed int64, trace workload.Trace, shards int) (*simRun, error) {
	c, err := swishmem.New(swishmem.Config{Switches: simSwitches, Shards: shards, Seed: seed})
	if err != nil {
		return nil, err
	}
	dets, err := c.DeployDDoS("ddos", swishmem.DDoSOptions{Threshold: 2000, Window: 50 * time.Millisecond})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.RunFor(2 * time.Millisecond)
	s := &simRun{c: c, dets: dets, trace: trace, inj: make([]func(), len(trace)),
		pass: sim.Duration(c.Now())}
	for i := range trace {
		sw, pkt := c.Switch(i%simSwitches), trace[i].Pkt
		s.inj[i] = func() { sw.InjectPacket(pkt) }
	}
	return s, nil
}

// chunk schedules the next simChunk of trace packets at their arrival times
// (each on its own switch's engine) and advances the cluster over them. It
// returns the packets injected.
func (s *simRun) chunk() uint64 {
	end := sim.Duration(s.c.Now()) + simChunk
	var n uint64
	for {
		if s.cursor == len(s.trace) {
			s.cursor = 0
			s.pass += simTraceLen
		}
		at := s.pass + s.trace[s.cursor].At
		if at >= end {
			break
		}
		i := s.cursor
		s.c.Switch(i%simSwitches).Engine().Schedule(sim.Time(at), s.inj[i])
		s.cursor++
		n++
	}
	s.c.RunFor(simChunk)
	s.injected += n
	return n
}

// accounted is the number of packets the detectors counted.
func (s *simRun) accounted() uint64 {
	var n uint64
	for _, d := range s.dets {
		n += d.Stats.Updated.Value()
	}
	return n
}

// fingerprint is the exact-repeat state after a fixed prefix of the trace.
type fingerprint struct{ events, delivered, accounted uint64 }

func (s *simRun) fingerprint() fingerprint {
	return fingerprint{s.c.EventsProcessed(), s.c.NetworkTotals().MsgsDeliv, s.accounted()}
}

// checkRepeat is the simulator's determinism oracle: every set-up of a run
// replayed the same trace prefix and must have landed on the same state.
func checkRepeat(r *result, prints []fingerprint) {
	for _, p := range prints[1:] {
		if p != prints[0] {
			r.failAll("same seed, different simulation: %+v vs %+v", prints[0], p)
		}
	}
}

func runSim(cfg config, spans *spanLog) (*result, error) {
	r := &result{Correct: true}
	var (
		s      *simRun
		setups []float64
		prints []fingerprint
	)
	// Set-up, repeated: generate the trace, build the cluster, warm it over
	// a fixed prefix. Every repetition must land on the same fingerprint —
	// the simulator's determinism oracle.
	for rep := 0; rep < cfg.setupReps; rep++ {
		t0 := time.Now()
		if rep == 0 {
			t0 = processStart
		}
		if s != nil {
			s.c.Close()
		}
		trace, err := genSim(cfg.seed)
		if err != nil {
			return nil, err
		}
		if s, err = newSimRun(cfg.seed, trace, 1); err != nil {
			return nil, err
		}
		for i := 0; i < cfg.scale(simWarmChunks); i++ {
			s.chunk()
		}
		prints = append(prints, s.fingerprint())
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.c.Close()
	checkRepeat(r, prints)

	// Measured phase: chunk after chunk until the wall budget is spent. An
	// op is an injected packet; its latency is its chunk's wall time divided
	// by the chunk's packets. A traced phase records a span per chunk in
	// every other window.
	d := cfg.duration
	nwin := max(int(d/time.Second), 2)
	if cfg.trace {
		d = d / 3 * 2 // the burst probe takes the last third
		nwin = max(int(d/time.Second), 4)
	}
	width := int64(d) / int64(nwin)
	ws := newWindows(0, width, nwin)
	f0, m0, cpu0, base := s.fingerprint(), readMem(), cpuTime(), time.Now()
	var ops uint64
	yard := newYardstick()
	defer yard.close()
	window := 0
	for {
		t0 := time.Since(base)
		if t0 >= d {
			break
		}
		// A window ended: the yardstick prices the host, off the run clock.
		if w := int(int64(t0) / width); w != window {
			window = w
			p0, c0 := time.Now(), cpuTime()
			yard.sample()
			cpu0 += cpuTime() - c0
			base = base.Add(time.Since(p0))
			t0 = time.Since(base)
		}
		n := s.chunk()
		t1 := time.Since(base)
		if n == 0 {
			continue
		}
		ops += n
		ws.add(int64(t1), int64(t1-t0)/int64(n), n, int64(t1-t0))
		if cfg.trace && tracedWindow(int(int64(t1)/width)) && spans.sample() {
			spans.add("sim.chunk", "sim", spans.nextOp(), 0, int64(t0), int64(t1-t0), "")
		}
	}
	cpu, mem, f1 := cpuTime()-cpu0, readMem().since(m0), s.fingerprint()

	// The last chunk's final packets are still in a pipeline: let them out
	// before asking whether every injected packet was accounted.
	s.c.RunFor(simChunk)
	r.Attempted = s.injected
	if acc := s.accounted(); acc != s.injected {
		r.Failed = s.injected - acc
		r.notef("%d of %d injected packets were not accounted", r.Failed, s.injected)
	}
	if !cfg.trace {
		setEndToEnd(r, setups, ws, ops, cpu, yard)
		return r, nil
	}
	r.setLayer("sim.events_per_op", float64(f1.events-f0.events)/float64(ops))
	r.setLayer("netem.msgs_per_op", float64(f1.delivered-f0.delivered)/float64(ops))
	r.setLayer("netem.bytes_per_op", float64(s.c.NetworkTotals().BytesDeliv)/float64(s.injected))
	var adds, updates uint64
	for _, det := range s.dets {
		es := &det.Register().Node().Stats
		adds += es.Writes.Value()
		updates += es.UpdatesSent.Value()
	}
	r.setLayer("ewo.writes", float64(adds))
	r.setLayer("ewo.updates_per_add", float64(updates)/float64(adds))
	r.setLayer("host.yardstick_ns", median(yard.samples))
	setTraceOverhead(r, ws)
	setRuntime(r, mem, ops)
	return r, nil
}

// simShardsSpeedup replays the same short trace prefix on one and on two
// shard engines and returns wall(1)/wall(2).
func simShardsSpeedup(seed int64, chunks int) (float64, error) {
	trace, err := genSim(seed)
	if err != nil {
		return 0, err
	}
	var wall [2]time.Duration
	var prints [2]fingerprint
	for i, shards := range []int{1, 2} {
		s, err := newSimRun(seed, trace, shards)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for c := 0; c < chunks; c++ {
			s.chunk()
		}
		wall[i] = time.Since(t0)
		prints[i] = s.fingerprint()
		s.c.Close()
	}
	if prints[0] != prints[1] {
		return 0, fmt.Errorf("sharded run diverged: %+v vs %+v", prints[0], prints[1])
	}
	return wall[0].Seconds() / wall[1].Seconds(), nil
}
