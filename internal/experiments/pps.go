package experiments

import (
	"fmt"
	"time"

	"swishmem"
	"swishmem/internal/stats"
)

// PacketRate (E17) is the throughput headline: counter adds per wall-clock
// second through the batched hot path, swept over workload burst size (how
// many same-instant adds each switch issues per round). The burst size is
// model-visible: a switch's adds of one instant leave as one update, so
// delivered messages and events fall as the burst grows while the counter
// sum stays put — which is why the rate counts adds, the work done, and not
// messages. The deterministic columns (events, delivered messages, counter
// sums) are the table; the rates land in Metrics (adds_per_sec/batch=B) so
// the table stays byte-stable across hosts.
func PacketRate(seed int64) *Result {
	res := &Result{ID: "E17", Title: "add rate: update coalescing, batched dispatch over burst size"}
	tab := stats.NewTable("E17: 8-switch EWO counter blast, per-batch outcomes",
		"Batch", "Events", "Msgs deliv", "Counter sum")

	res.Metrics = make(map[string]float64)
	exact := true
	for _, batch := range []int{1, 8, 64} {
		o, wall := ppsRun(seed, batch)
		if o.ctrSum != ppsSum {
			exact = false
		}
		tab.AddRow(batch, o.events, o.msgs, o.ctrSum)
		lbl := fmt.Sprintf("batch=%d", batch)
		res.Metrics["adds_per_sec/"+lbl] = ppsAdds / wall
		res.Metrics["pps.wall_seconds/"+lbl] = wall
	}
	res.Tables = append(res.Tables, tab)
	if !exact {
		res.note("SHAPE VIOLATION: a counter sum differs from the %d the adds made", ppsSum)
	}
	res.note("a switch's adds of one instant leave as one update: messages and events fall with the burst size, the counter sum does not")
	res.note("wall-clock add rates are in Metrics (adds_per_sec/batch=B); compare across rows, not across hosts")
	return res
}

// ppsOutcome is the model-visible result of one E17 cell.
type ppsOutcome struct{ events, msgs, ctrSum uint64 }

// ppsAdds is the number of counter adds one E17 cell issues, whatever its
// burst size: 768 on each of 8 switches. Switch w adds w+1 each time, so the
// converged counters sum to ppsSum.
const (
	ppsAdds = 8 * 768
	ppsSum  = 768 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)
)

// ppsRun drives one E17 cell: each of 8 switches issues `batch` counter
// increments per round at the same virtual instant (the coalescible burst),
// with rounds scaled so total operations are identical across batch sizes.
func ppsRun(seed int64, batch int) (ppsOutcome, float64) {
	var o ppsOutcome
	const opsPerSwitch = ppsAdds / 8
	start := time.Now()
	c, err := newCluster(swishmem.Config{Switches: 8, Seed: seed})
	if err != nil {
		panic(err)
	}
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
