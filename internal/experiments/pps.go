package experiments

import (
	"fmt"
	"runtime"
	"time"

	"swishmem"
	"swishmem/internal/netem"
	"swishmem/internal/netem/live"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
	"swishmem/internal/wire"
)

// PacketRate (E17) is the throughput headline: counter adds per wall-clock
// second through the batched hot path, swept over workload burst size (how
// many same-instant adds each switch issues per round) and simulation shard
// count. The burst size is model-visible: a switch's adds of one instant
// leave as one update, so delivered messages and events fall as the burst
// grows while the counter sum stays put — which is why the rate counts adds,
// the work done, and not messages. Within a burst size the deterministic
// columns — events, delivered messages, counter sums, and a match-vs-base
// flag — prove batched dispatch, delivery coalescing and sharding change
// NOTHING observable while the wall-clock rate moves; the rates themselves
// land in Metrics (adds_per_sec/batch=B,shards=K) so the table stays
// byte-stable across hosts.
func PacketRate(seed int64) *Result {
	res := &Result{ID: "E17", Title: "add rate: update coalescing, batched dispatch + delivery coalescing over burst size x shards"}
	tab := stats.NewTable("E17: 8-switch EWO counter blast, per-(batch,shards) outcomes (identical rows per batch = deterministic)",
		"Batch", "Shards", "Events", "Msgs deliv", "Counter sum", "Matches base")

	res.Metrics = make(map[string]float64)
	identical := true
	for _, batch := range []int{1, 8, 64} {
		var base ppsOutcome
		for _, shards := range []int{1, 2, 4} {
			o, wall := ppsRun(seed, batch, shards)
			if shards == 1 {
				base = o
			}
			match := o == base
			if !match {
				identical = false
			}
			tab.AddRow(batch, shards, o.events, o.msgs, o.ctrSum, match)
			lbl := fmt.Sprintf("batch=%d,shards=%d", batch, shards)
			res.Metrics["adds_per_sec/"+lbl] = ppsAdds / wall
			res.Metrics["pps.wall_seconds/"+lbl] = wall
		}
	}
	res.Metrics["pps.cpus"] = float64(runtime.NumCPU())
	res.Tables = append(res.Tables, tab)
	if identical {
		res.note("every shard count reproduces the sequential outcome exactly at every batch size (delivery coalescing and sharding are invisible)")
	} else {
		res.note("SHAPE VIOLATION: batched/sharded execution diverged from sequential")
	}
	res.note("a switch's adds of one instant leave as one update: messages and events fall with the burst size, the counter sum does not")
	res.note("wall-clock add rates are in Metrics (adds_per_sec/batch=B,shards=K); compare across rows, not across hosts")
	return res
}

// ppsOutcome is the model-visible result of one E17 cell.
type ppsOutcome struct{ events, msgs, ctrSum uint64 }

// ppsAdds is the number of counter adds one E17 cell issues, whatever its
// burst size: 768 on each of 8 switches.
const ppsAdds = 8 * 768

// ppsRun drives one E17 cell: each of 8 switches issues `batch` counter
// increments per round at the same virtual instant (the coalescible burst),
// with rounds scaled so total operations are identical across batch sizes.
func ppsRun(seed int64, batch, shards int) (ppsOutcome, float64) {
	var o ppsOutcome
	const opsPerSwitch = ppsAdds / 8
	start := time.Now()
	c, err := newCluster(swishmem.Config{Switches: 8, Seed: seed, Shards: shards})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	cnt, err := c.DeclareCounter("c", swishmem.EventualOptions{Capacity: 128})
	if err != nil {
		panic(err)
	}
	c.RunFor(2 * time.Millisecond)
	rounds := opsPerSwitch / batch
	for round := 0; round < rounds; round++ {
		for w := 0; w < 8; w++ {
			for b := 0; b < batch; b++ {
				cnt[w].Add(uint64((round*batch+b+w)%128), uint64(w+1))
			}
		}
		c.RunFor(200 * time.Microsecond)
	}
	c.RunFor(50 * time.Millisecond)

	o.events = c.EventsProcessed()
	o.msgs = c.NetworkTotals().MsgsDeliv
	for k := uint64(0); k < 128; k++ {
		o.ctrSum += cnt[0].Sum(k)
	}
	return o, time.Since(start).Seconds()
}

// MacroResult is one macro row in the benchtab snapshot (schema 4): a
// wall-clock throughput number (PPS: Ops per second — counter adds for the
// simulator row, received messages for the live rows) with its op count, so
// cmd/benchdiff can hold a floor under the headline rates.
type MacroResult struct {
	Name   string             `json:"name"`
	About  string             `json:"about"`
	PPS    float64            `json:"pps"`
	Ops    uint64             `json:"ops"`
	WallMs float64            `json:"wall_ms"`
	Meta   map[string]float64 `json:"meta,omitempty"`
}

// Macros runs the rate macro benchmarks: the simulated hot path at the
// largest burst size (counter adds/sec), and the live UDP loopback pump with
// the sender's egress inline and on workers (packets/sec). Unlike the
// experiment tables these are wall-clock measurements — they go into the
// snapshot for cmd/benchdiff's pps floor, not to stdout.
func Macros(seed int64) []MacroResult {
	out := []MacroResult{simPPSMacro(seed)}
	out = append(out, livePPSMacro("live.pps/pump=1", "loopback UDP pump, single goroutine", 0))
	out = append(out, livePPSMacro("live.pps/egress", "loopback UDP pump, coalescing sender on 2 egress workers", 2))
	return out
}

// simPPSMacro measures the simulated fabric's counter adds per wall second
// under the E17 batch=64 workload, sequentially (the pure hot-path number, no
// window coordination). Adds, not delivered messages: a burst leaves each
// switch as one update, so the message count says how well the work was
// packed, not how much was done. One cell is a few milliseconds of wall
// time, of which a GC cycle or a descheduling is a large share, so the row
// is the fastest of 21 cells: what the code costs when nothing else happens
// (±1.5 % between invocations where the median swung ±20 %).
func simPPSMacro(seed int64) MacroResult {
	o, wall := ppsRun(seed, 64, 1)
	for i := 1; i < 21; i++ {
		if _, w := ppsRun(seed, 64, 1); w < wall {
			wall = w
		}
	}
	return MacroResult{
		Name:   "sim.adds/burst=64",
		About:  "simulated fabric: 8-switch EWO blast, 64-add bursts, sequential engine; counter adds/sec",
		PPS:    ppsAdds / wall,
		Ops:    ppsAdds,
		WallMs: wall * 1000,
		Meta:   map[string]float64{"events": float64(o.events), "msgs": float64(o.msgs)},
	}
}

// livePPSMacro measures the live loopback path: a coalescing sender fabric
// blasts heartbeat bursts at a receiver; the rate is the receiver's injected
// messages per wall second of blast time. egressShards > 1 moves the sender's
// serialization and socket writes onto egress workers. The row also reports
// the process-wide heap allocations per received datagram over the
// steady-state window (warm pools on both sides drive it toward zero).
func livePPSMacro(name, about string, egressShards int) MacroResult {
	// The offered load is burst heartbeats per virtual 100µs (1.28M msgs/s).
	// The macro is deliberately source-limited at a rate every variant
	// sustains on the single-core reference host, so the rows are stable
	// floors rather than noisy saturation points: the zero-copy receive pump
	// decodes well past 2M msgs/s before it becomes the bottleneck (the
	// pre-view-decoder path saturated near 0.6M, which is why older
	// snapshots pinned the old burst of 64 at ~608k pkts/s).
	const (
		burst  = 128
		warmup = 100 * time.Millisecond
		budget = 400 * time.Millisecond
	)
	sender, err := live.NewFabric(live.FabricConfig{
		Addr: 1, Seed: 1, Coalesce: true, EgressShards: egressShards,
	})
	if err != nil {
		panic(err)
	}
	defer sender.Stop()
	recv, err := live.NewFabric(live.FabricConfig{Addr: 2, Seed: 2})
	if err != nil {
		panic(err)
	}
	defer recv.Stop()

	recv.SetSystemHandler(func(netem.Addr, wire.Msg) bool { return true })
	sender.Network().Attach(1, func(netem.Addr, any, int) {})
	sender.AddRemote(2, recv.AddrPort())
	recv.AddRemote(1, sender.AddrPort())

	// The sender's engine re-arms a blast every virtual 100µs; each blast is
	// one pump round, so the whole burst coalesces into few datagrams. The
	// heartbeats come from a pooled free list — with sharded egress the
	// marshal happens on a worker after the callback returns, so each send
	// needs its own live struct until the pump collects it back.
	seq := uint64(0)
	var free []*wire.Heartbeat
	freeFn := func(h *wire.Heartbeat) { free = append(free, h) }
	sender.Engine().Every(sim.Duration(100*time.Microsecond), func() {
		for i := 0; i < burst; i++ {
			seq++
			var hb *wire.Heartbeat
			if n := len(free); n > 0 {
				hb = free[n-1]
				free[n-1] = nil
				free = free[:n-1]
			} else {
				hb = &wire.Heartbeat{}
				hb.EnablePool(freeFn)
			}
			hb.From, hb.Seq = 1, seq
			hb.Ref()
			sender.Network().Send(1, 2, hb, hb.Size())
			hb.Release()
		}
	})
	start := time.Now()
	recv.Start()
	sender.Start()
	// Steady-state allocation accounting: skip the warm-up (pool growth,
	// socket buffers), then attribute the process's Mallocs delta to the
	// datagrams received over the measured window.
	time.Sleep(warmup)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rx0 := recv.Node().Stats().Received
	time.Sleep(budget - warmup)
	runtime.ReadMemStats(&ms1)
	rx1 := recv.Node().Stats().Received
	sender.Stop()
	// Let in-flight datagrams drain before reading the receiver's counters.
	time.Sleep(20 * time.Millisecond)
	wall := time.Since(start).Seconds()
	recv.Stop()
	st := recv.FStats()
	got := st.Injected + st.SystemConsumed
	allocs := 0.0
	if rx1 > rx0 {
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(rx1-rx0)
	}
	return MacroResult{
		Name:   name,
		About:  about,
		PPS:    float64(got) / wall,
		Ops:    got,
		WallMs: wall * 1000,
		Meta: map[string]float64{
			"decode_err":          float64(st.DecodeErr),
			"pump_rounds":         float64(st.PumpRounds),
			"egress_shards":       float64(egressShards),
			"allocs_per_datagram": allocs,
		},
	}
}
