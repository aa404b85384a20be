package experiments

import (
	"fmt"
	"runtime"
	"time"

	"swishmem"
	"swishmem/internal/stats"
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
