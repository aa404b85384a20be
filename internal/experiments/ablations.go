package experiments

import (
	"fmt"
	"time"

	"swishmem/internal/chain"
	"swishmem/internal/lincheck"
	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
	"swishmem/internal/wire"
)

// The experiments in this file are ablations of SwiShmem design choices
// that the paper motivates but does not measure. They extend the E1–E12
// index (DESIGN.md §3) as E13–E15.

// chainRig builds a raw chain cluster (no public-API controller) so
// ablations can use non-standard chain configurations.
type chainRig struct {
	eng   *sim.Engine
	net   *netem.Network
	nodes []*chain.Node
}

func newChainRig(seed int64, n int, cfg chain.Config, profile netem.LinkProfile) *chainRig {
	eng := sim.NewEngine(seed)
	nw := netem.New(eng, profile)
	r := &chainRig{eng: eng, net: nw}
	members := make([]uint16, 0, n)
	for i := 0; i < n; i++ {
		sw := pisa.New(eng, nw, pisa.Config{Addr: netem.Addr(i + 1), PipelinePPS: 1e9})
		node, err := chain.NewNode(sw, cfg)
		if err != nil {
			panic(err)
		}
		sw.SetMsgHandler(func(s *pisa.Switch, from netem.Addr, msg wire.Msg) {
			node.Handle(from, msg)
		})
		r.nodes = append(r.nodes, node)
		members = append(members, uint16(i+1))
	}
	cc := wire.ChainConfig{Epoch: 1, Members: members}
	for _, nd := range r.nodes {
		nd.SetChain(cc)
	}
	return r
}

// ReadPathAblation (E13) quantifies what SwiShmem's CRAQ-derived local-read
// optimization buys over classic chain replication / NetChain, where every
// read is served by the tail (§6.1 footnote 1). Under a read-intensive
// workload with occasional writes, local reads cost nothing and only the
// pending fraction pays the tail round trip; always-tail reads pay it on
// every operation and concentrate all read load on one switch.
func ReadPathAblation(seed int64) *Result {
	res := &Result{ID: "E13", Title: "ablation: CRAQ-style local reads vs always-at-tail reads (NetChain baseline)"}
	tab := stats.NewTable("E13: 1000 reads at the head, 1 write per 100 reads (3-switch chain, 10µs links)",
		"Read path", "Mean read latency", "p99", "Reads served locally", "Tail read load")

	run := func(alwaysTail bool) (mean, p99 time.Duration, local, tailLoad uint64) {
		cfg := chain.Config{Reg: 1, Capacity: 1024, ValueWidth: 8, Mode: chain.SRO,
			AlwaysTailReads: alwaysTail}
		r := newChainRig(seed, 3, cfg, netem.LinkProfile{Latency: 10_000, BandwidthBps: 100e9})
		// Seed a value.
		r.nodes[0].Write(1, []byte("v"), nil)
		r.eng.RunFor(10 * 1000 * 1000)
		h := stats.NewHistogram()
		for i := 0; i < 1000; i++ {
			if i%100 == 99 {
				r.nodes[0].Write(1, []byte("w"), nil)
				// No settling: some reads race the write (pending path).
			}
			start := r.eng.Now()
			done := false
			r.nodes[0].Read(1, func(v []byte, ok bool) {
				h.Observe(float64(r.eng.Now() - start))
				done = true
			})
			if !done {
				r.eng.RunFor(5 * 1000 * 1000) // wait for the forwarded reply
			}
			r.eng.RunFor(10_000)
		}
		r.eng.Run()
		return time.Duration(h.Mean()), time.Duration(h.Quantile(0.99)),
			r.nodes[0].Counters().ReadsLocal.Value(), r.nodes[2].Counters().TailReads.Value()
	}

	lMean, lP99, lLocal, lTail := run(false)
	tMean, tP99, tLocal, tTail := run(true)
	tab.AddRow("local unless pending (SwiShmem)", lMean, lP99, lLocal, lTail)
	tab.AddRow("always at tail (NetChain-style)", tMean, tP99, tLocal, tTail)
	res.Tables = append(res.Tables, tab)
	res.note("local-read optimization: %.0fx lower mean read latency and %dx less tail load",
		float64(tMean)/max1(float64(lMean)), tTail/max1u(lTail))
	if tMean <= lMean {
		res.note("SHAPE VIOLATION: always-tail reads not slower")
	}
	return res
}

func max1(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

func max1u(v uint64) uint64 {
	if v < 1 {
		return 1
	}
	return v
}

// GroupSharingAblation (E14) measures the cost side of §7's sequence-group
// sharing: with fewer groups, unrelated keys share pending bits, so a write
// to one key forces reads of other keys in its group to detour to the tail
// (false forwarding). SRAM shrinks linearly; false forwarding grows as
// groups shrink — the trade the paper leaves implicit.
func GroupSharingAblation(seed int64) *Result {
	res := &Result{ID: "E14", Title: "ablation: §7 sequence-group sharing — SRAM vs false read forwarding"}
	tab := stats.NewTable("E14: reads of idle keys while 1 hot key is written continuously (4096 keys)",
		"Groups", "Metadata SRAM", "False-forward rate")

	falseGrows := true
	var prevRate float64 = -1
	for _, groups := range []int{4096, 256, 64, 16, 4} {
		cfg := chain.Config{Reg: 1, Capacity: 4096, ValueWidth: 8, Mode: chain.SRO, Groups: groups}
		r := newChainRig(seed, 3, cfg, netem.LinkProfile{Latency: 200_000, BandwidthBps: 100e9})
		// Populate idle keys.
		for k := uint64(0); k < 512; k++ {
			r.nodes[0].Write(k, []byte("i"), nil)
		}
		r.eng.Run()
		// Hot writer keeps key 9999 pending much of the time.
		stop := false
		var hot func()
		hot = func() {
			if stop {
				return
			}
			r.nodes[0].Write(9999, []byte("h"), func(ok bool) { hot() })
		}
		hot()
		// Reads of idle keys at the head: forwarded only on group collision.
		forwarded := r.nodes[0].Counters().ReadsForwarded.Value()
		total := 0
		for k := uint64(0); k < 512; k++ {
			r.nodes[0].Read(k, func(v []byte, ok bool) {})
			total++
			r.eng.RunFor(100_000)
		}
		stop = true
		r.eng.Run()
		rate := float64(r.nodes[0].Counters().ReadsForwarded.Value()-forwarded) / float64(total)
		meta := r.nodes[0].MemoryBytes() - 4096*(8+8) // subtract the store
		tab.AddRow(groups, meta, rate)
		if prevRate >= 0 && rate < prevRate {
			falseGrows = false
		}
		prevRate = rate
	}
	res.Tables = append(res.Tables, tab)
	res.note("false forwarding grows as groups shrink: %v (SRAM falls linearly)", falseGrows)
	return res
}

// LossAnomaly (E15) measures the consistency anomaly window the chain
// backend documents for lossy chain hops (internal/chain package comment).
// The window needs sequence-group sharing (§7): when keys A and B share a
// group, a write to A dropped on a chain hop leaves A's uncommitted value
// applied upstream; when a later write to B commits, its ack clears the
// SHARED pending bit, exposing A's uncommitted value to local reads until
// A's retry commits. With per-key groups or lossless chain hops the anomaly
// cannot occur — which the loss=0 row verifies. The retransmit backend
// answers the §9 open problem: hop-level hold-back/retransmit buffers keep
// every member's apply in exact sequence order, so the rows measured with it
// must show zero violating histories at every loss rate.
func LossAnomaly(seed int64) *Result {
	res := &Result{ID: "E15", Title: "extension: SRO anomaly rate vs chain-hop loss (the §9 open question, measured)"}
	tab := stats.NewTable("E15: non-linearizable histories out of 40 seeds (2 keys sharing 1 seq group)",
		"Backend", "Chain-hop loss", "Violating histories", "Commit failures")

	for _, rep := range []chain.Replication{chain.ChainReplication, chain.RetransmitReplication} {
		for _, loss := range []float64{0, 0.05, 0.2} {
			violations, failures := lossAnomalyTrial(seed, rep,
				netem.LinkProfile{Latency: 20_000, LossRate: loss})
			tab.AddRow(rep, loss, violations, failures)
			if loss == 0 && violations != 0 {
				res.note("SHAPE VIOLATION: linearizability violated on lossless chain hops (%v)", rep)
			}
			if rep == chain.RetransmitReplication && violations != 0 {
				res.note("SHAPE VIOLATION: retransmit backend admitted %d violating histories at loss %.2f",
					violations, loss)
			}
		}
	}
	res.Tables = append(res.Tables, tab)
	res.note("chain backend: the anomaly window exists only under chain-hop loss and closes via " +
		"writer retries; retransmit backend: in-order apply with data-plane NACK/retransmission " +
		"(the §9 open problem, implemented) measures zero violating histories at every rate")
	return res
}

// NthLossAnomaly (E18) reruns the E15 anomaly measurement with the
// deterministic every-Nth-packet dropper at rates matched to E15's random
// rows (every-20th = 5%, every-5th = 20%). The two models share a long-run
// rate but distribute drops differently: random loss concentrates its drops
// in a few unlucky histories (and leaves others untouched), while the
// periodic dropper guarantees every history eats drops at exactly the
// configured cadence — no lucky seeds. The measured anomaly rate under
// every-Nth loss is therefore at least that of random loss at the same
// rate, which is exactly why the explorer's NthLossBurst episodes exist:
// they reach schedules the random model visits only with luck.
func NthLossAnomaly(seed int64) *Result {
	res := &Result{ID: "E18",
		Title: "extension: SRO anomaly rate — every-Nth vs random loss at equal rates"}
	tab := stats.NewTable("E18: non-linearizable histories out of 40 seeds (2 keys sharing 1 seq group)",
		"Backend", "Loss model", "Rate", "Violating histories", "Commit failures")
	for _, rep := range []chain.Replication{chain.ChainReplication, chain.RetransmitReplication} {
		randV := map[float64]int{}
		for _, row := range []struct {
			model string
			rate  float64
			n     int
		}{
			{"random", 0.05, 0},
			{"every-20th", 0.05, 20},
			{"random", 0.20, 0},
			{"every-5th", 0.20, 5},
		} {
			p := netem.LinkProfile{Latency: 20_000, LossRate: row.rate}
			if row.n > 0 {
				p = netem.LinkProfile{Latency: 20_000, LossEveryN: row.n}
			}
			violations, failures := lossAnomalyTrial(seed, rep, p)
			tab.AddRow(rep, row.model, row.rate, violations, failures)
			if rep == chain.RetransmitReplication {
				if violations != 0 {
					res.note("SHAPE VIOLATION: retransmit backend admitted %d violations under %s loss at %.2f",
						violations, row.model, row.rate)
				}
				continue
			}
			if row.n == 0 {
				randV[row.rate] = violations
			} else if violations < randV[row.rate] {
				res.note("SHAPE VIOLATION: every-Nth loss at rate %.2f found fewer anomalies than random", row.rate)
			}
		}
	}
	res.Tables = append(res.Tables, tab)
	res.note("matched long-run rates, different distribution: random loss spares the lucky " +
		"histories while the periodic dropper hits every one at the exact cadence, so at equal " +
		"rates every-Nth loss finds at least as many anomalies on the chain backend — while the " +
		"retransmit backend repairs every drop pattern to zero anomalies")
	return res
}

func lossAnomalyTrial(seed int64, rep chain.Replication, lossy netem.LinkProfile) (violations, failures int) {
	for trial := int64(0); trial < 40; trial++ {
		cfg := chain.Config{Reg: 1, Capacity: 64, ValueWidth: 16, Mode: chain.SRO,
			Groups: 1, RetryTimeout: 2 * time.Millisecond, Replication: rep}
		r := newChainRig(seed*100+trial, 3, cfg,
			netem.LinkProfile{Latency: 20_000, BandwidthBps: 100e9})
		// Loss only on chain hops 1->2 and 2->3 (writer->head and acks stay
		// clean so every write eventually commits via retries).
		r.net.SetOneWayLink(1, 2, lossy)
		r.net.SetOneWayLink(2, 3, lossy)

		rec := &lincheck.Recorder{}
		fails := 0
		rng := r.eng.Rand()
		n := 0
		var issue func()
		issue = func() {
			if n >= 40 {
				return
			}
			n++
			key := uint64(rng.Intn(2)) // two keys, one shared seq group
			node := r.nodes[rng.Intn(3)]
			start := int64(r.eng.Now())
			if rng.Intn(2) == 0 {
				v := fmt.Sprintf("%08x", rng.Int31())
				node.Write(key, []byte(v), func(ok bool) {
					if ok {
						rec.Add(key, lincheck.Op{Start: start, End: int64(r.eng.Now()), Write: true, Value: v})
					} else {
						fails++
					}
				})
			} else {
				node.Read(key, func(val []byte, ok bool) {
					rec.Add(key, lincheck.Op{Start: start, End: int64(r.eng.Now()), Write: false, Value: string(val)})
				})
			}
			r.eng.After(sim.Duration(rng.Int63n(int64(150*time.Microsecond))), issue)
		}
		for i := 0; i < 4; i++ {
			r.eng.After(sim.Duration(i+1), issue)
		}
		r.eng.Run()
		if _, ok := rec.CheckAll(); !ok {
			violations++
		}
		failures += fails
	}
	return violations, failures
}

// ReplicationBackends (E19) puts a price tag on closing the E15 anomaly
// window: the retransmit backend buys zero non-linearizable histories at
// 20% chain-hop loss with two bounded SRAM buffers per member and the NACK/
// retransmission traffic that repairs drops in the data plane. The table
// compares the backends on all three axes — anomalies, per-member SRAM, and
// fabric bytes per committed write — under the E15 fault shape, plus a
// lossless baseline row showing the wire cost when recovery is idle.
func ReplicationBackends(seed int64) *Result {
	res := &Result{ID: "E19",
		Title: "extension: replication backends — anomaly rate vs SRAM vs wire cost"}
	tab := stats.NewTable("E19: 3-switch chain, 2 keys sharing 1 seq group, 40 seeds x 40 ops",
		"Backend", "Chain-hop loss", "Violating histories", "Commit failures",
		"SRAM bytes/member", "Wire bytes/committed write")

	var chainSRAM, rtxSRAM int
	for _, rep := range []chain.Replication{chain.ChainReplication, chain.RetransmitReplication} {
		for _, loss := range []float64{0, 0.2} {
			lossy := netem.LinkProfile{Latency: 20_000, LossRate: loss}
			violations, failures := lossAnomalyTrial(seed, rep, lossy)
			sram, wireBytes := backendCostTrial(seed, rep, lossy)
			tab.AddRow(rep, loss, violations, failures, sram, wireBytes)
			if rep == chain.ChainReplication {
				chainSRAM = sram
			} else {
				rtxSRAM = sram
				if violations != 0 {
					res.note("SHAPE VIOLATION: retransmit backend admitted %d violations at loss %.2f",
						violations, loss)
				}
			}
		}
	}
	res.Tables = append(res.Tables, tab)
	res.note("the anomaly fix is paid for in bounded SRAM (+%d bytes/member for 2 x groups x "+
		"depth buffer slots) and in recovery traffic only when loss actually occurs",
		rtxSRAM-chainSRAM)
	if rtxSRAM <= chainSRAM {
		res.note("SHAPE VIOLATION: retransmit backend charged no extra SRAM")
	}
	return res
}

// backendCostTrial measures per-member SRAM and fabric bytes per committed
// write for one backend under one loss profile: a fixed 200-write workload
// from the head, counted against total bytes sent on the fabric.
func backendCostTrial(seed int64, rep chain.Replication, lossy netem.LinkProfile) (sram int, bytesPerWrite uint64) {
	cfg := chain.Config{Reg: 1, Capacity: 64, ValueWidth: 16, Mode: chain.SRO,
		Groups: 1, RetryTimeout: 2 * time.Millisecond, Replication: rep}
	r := newChainRig(seed, 3, cfg, netem.LinkProfile{Latency: 20_000, BandwidthBps: 100e9})
	r.net.SetOneWayLink(1, 2, lossy)
	r.net.SetOneWayLink(2, 3, lossy)
	committed := uint64(0)
	const writes = 200
	for i := 0; i < writes; i++ {
		v := fmt.Sprintf("%016d", i)
		r.nodes[0].Write(uint64(i%2), []byte(v), func(ok bool) {
			if ok {
				committed++
			}
		})
		r.eng.RunFor(100 * time.Microsecond)
	}
	r.eng.Run()
	if committed == 0 {
		return r.nodes[1].MemoryBytes(), 0
	}
	return r.nodes[1].MemoryBytes(), r.net.Totals().BytesSent / committed
}
