package main

import (
	"time"
)

// Burst probe constants: 40 SRO writes every millisecond = 40 k writes/s
// offered on a schedule, whatever the cluster does with them.
const (
	burstOps   = 40
	burstTick  = time.Millisecond
	burstSlots = 1 << 14 // in-flight cap; a burst finding none free is shed
)

// probeBurst is the one open-loop measurement, kept as an ungated per-layer
// probe: offered in bursts, SRO writes overrun the kernel socket queues on a
// small host (datagrams lost, writer retries), which the closed loops never
// provoke. It is the baseline for bounding the hand-off queues (ROADMAP 4a).
func probeBurst(r *result, cfg config) error {
	c, err := newCluster(cfg.seed+1, 0) // the default 2 ms writer retry: its count is the probe
	if err != nil {
		return err
	}
	defer c.stop()
	l := newLoop(c, genSRO(cfg.seed), burstSlots, 1)
	l.window = sroWindow // warm up closed-loop; the bursts ignore the window
	l.warm(uint64(cfg.scale(20_000)))
	l.drain(5 * time.Second)

	d := cfg.duration / 3
	if cfg.quick {
		d = 150 * time.Millisecond
	}
	c0 := c.counters()
	next, end := time.Now(), time.Now().Add(d)
	for next.Before(end) {
		for reaped := false; !reaped; {
			select {
			case s := <-l.done:
				l.handle(s)
			default:
				reaped = true
			}
		}
		for i := 0; i < burstOps && len(l.free) > 0; i++ {
			s := l.free[len(l.free)-1]
			l.free = l.free[:len(l.free)-1]
			l.issue(s)
		}
		next = next.Add(burstTick)
		time.Sleep(time.Until(next))
	}
	l.drain(5 * time.Second)
	dc := c.counters().sub(c0)

	if dc[cDatagramsSent] > 0 {
		r.setLayer("live.burst_rx_loss_frac", 1-float64(dc[cDatagramsRecv])/float64(dc[cDatagramsSent]))
	}
	if dc[cWritesSubmitted] > 0 {
		r.setLayer("chain.burst_retries_per_op", float64(dc[cRetries])/float64(dc[cWritesSubmitted]))
	}
	// A simulator workload has no live cluster of its own: report the
	// live-only figures from this one.
	if _, ok := r.Metrics["controller.bootstrap_ms"]; !ok {
		r.setLayer("controller.bootstrap_ms", c.bootstrap.Seconds()*1e3)
		r.setLayer("pisa.sram_bytes_per_member", float64(c.members[0].Switch.MemoryUsed()))
		r.setLayer("obs.snapshot_ms", obsSnapshot(c).Seconds()*1e3)
	}
	return nil
}
