// swishd runs an emulated SwiShmem switch cluster with one of the paper's
// network functions deployed, drives a synthetic workload through it, and
// prints periodic and final metrics.
//
// Usage:
//
//	swishd -nf lb -switches 4 -duration 200ms
//	swishd -nf ddos -loss 0.05
//	swishd -nf nat -fail 2 -failafter 50ms    # fail switch #2 mid-run
//	swishd -nf lb -trace out.json             # virtual-time trace (ui.perfetto.dev)
//	swishd -nf lb -metrics metrics.txt        # full cluster metrics dump
//
// Live (cross-process UDP) mode — see live.go:
//
//	swishd -live controller -live.listen 127.0.0.1:7000 -live.members 3
//	swishd -live member -live.addr 1 -live.controller 127.0.0.1:7000
//	swishd -live soak -live.budget 2s -live.loss 0.05
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"swishmem"
	"swishmem/internal/packet"
	"swishmem/internal/workload"
)

func main() {
	var (
		nfName      = flag.String("nf", "lb", "network function: nat | firewall | ips | lb | ddos | ratelimit")
		switches    = flag.Int("switches", 3, "number of replica switches")
		spares      = flag.Int("spares", 1, "spare switches for recovery")
		duration    = flag.Duration("duration", 100*time.Millisecond, "virtual run time")
		seed        = flag.Int64("seed", 1, "deterministic seed")
		loss        = flag.Float64("loss", 0, "inter-switch link loss rate")
		failIdx     = flag.Int("fail", -1, "switch index to fail mid-run (-1: none)")
		failAfter   = flag.Duration("failafter", 50*time.Millisecond, "virtual time of the failure")
		flowRate    = flag.Float64("flows", 20000, "new flows per second (connection NFs)")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
		metout      = flag.String("metrics", "", "write a plain-text dump of every cluster metric to this file")
		liveMode    = flag.String("live", "", "live UDP mode: controller | member | soak (see live.go)")
		timelineOut = flag.String("timeline", "",
			"stream a JSONL metrics timeline (virtual-time sampled) to this file")
		timelineIvl = flag.Duration("timeline.interval", time.Millisecond,
			"virtual-time sampling interval for -timeline")
	)
	flag.Parse()

	if *liveMode != "" {
		runLive(*liveMode)
		return
	}

	link := swishmem.LinkProfile{Latency: 10_000, BandwidthBps: 100e9, LossRate: *loss}
	cluster, err := swishmem.New(swishmem.Config{
		Switches: *switches, Spares: *spares, Seed: *seed, Link: &link,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *traceOut != "" {
		cluster.EnableTracing(1 << 18)
	}

	summary, err := deploy(cluster, *nfName)
	if err != nil {
		log.Fatal(err)
	}

	// The timeline starts after deploy so the NF's registers are in the
	// stream's registry (StreamMetrics binds the metric set at call time).
	var timelineFile *os.File
	var timeline *swishmem.MetricsStream
	if *timelineOut != "" {
		timelineFile, err = os.Create(*timelineOut)
		check(err)
		timeline, err = cluster.StreamMetrics(timelineFile, *timelineIvl, swishmem.StreamOptions{})
		check(err)
	}

	cluster.RunFor(2 * time.Millisecond)

	rng := rand.New(rand.NewSource(*seed))
	trace := buildTrace(rng, *nfName, *duration, *flowRate)
	fmt.Printf("swishd: %s on %d switches (+%d spares), %d packets over %v virtual time, loss=%.1f%%\n",
		*nfName, *switches, *spares, len(trace), *duration, *loss*100)

	i := 0
	workload.Replay(cluster.Engine(), trace, func(p *packet.Packet) {
		cluster.Switch(i % *switches).InjectPacket(p)
		i++
	})

	if *failIdx >= 0 && *failIdx < *switches {
		idx := *failIdx
		at := *failAfter
		cluster.Engine().After(durationToSim(at), func() {
			fmt.Printf("[%v] switch %d fails\n", at, idx+1)
			cluster.FailSwitch(idx)
		})
	}

	// Periodic progress line every 10% of the run.
	step := *duration / 10
	if step <= 0 {
		step = 10 * time.Millisecond
	}
	for t := step; t <= *duration+step; t += step {
		cluster.RunFor(step)
		tot := cluster.NetworkTotals()
		fmt.Printf("[%8v] fabric: %8d msgs %10d bytes (%d dropped)\n",
			cluster.Now(), tot.MsgsSent, tot.BytesSent, tot.MsgsDropped)
	}
	cluster.RunFor(200 * time.Millisecond) // drain

	fmt.Println()
	summary()
	ctrl := cluster.Controller()
	fmt.Printf("controller: %d heartbeats, %d failures, %d chain reconfigs, %d recoveries\n",
		ctrl.Stats.Heartbeats.Value(), ctrl.Stats.FailuresSeen.Value(),
		ctrl.Stats.ChainReconfig.Value(), ctrl.Stats.Recoveries.Value())
	for s := 0; s < *switches; s++ {
		fmt.Printf("switch %d SRAM: %d bytes\n", s+1, cluster.MemoryUsed(s))
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		check(err)
		check(cluster.WriteTrace(f))
		check(f.Close())
		fmt.Printf("wrote trace to %s (%d events retained; open at ui.perfetto.dev)\n",
			*traceOut, cluster.Tracer().Len())
	}
	if *metout != "" {
		f, err := os.Create(*metout)
		check(err)
		check(cluster.Metrics().Snapshot().WriteText(f))
		check(f.Close())
		fmt.Printf("wrote metrics to %s\n", *metout)
	}
	if timelineFile != nil {
		check(cluster.StopStreaming())
		check(timelineFile.Close())
		fmt.Printf("wrote %d timeline rows to %s\n", timeline.Rows(), *timelineOut)
	}
}

func durationToSim(d time.Duration) time.Duration { return d }

// deploy installs the chosen NF and returns a final summary printer.
func deploy(c *swishmem.Cluster, name string) (func(), error) {
	switch name {
	case "nat":
		nats, err := c.DeployNAT("nat", swishmem.NATOptions{
			Capacity: 1 << 16, ExternalIP: swishmem.Addr4(203, 0, 113, 1)})
		if err != nil {
			return nil, err
		}
		return func() {
			var conns, fwd uint64
			for _, n := range nats {
				conns += n.Stats.NewConns.Value()
				fwd += n.Stats.Translated.Value() + n.Stats.Reversed.Value()
			}
			fmt.Printf("nat: %d translations created, %d packets translated\n", conns, fwd)
		}, nil
	case "firewall":
		fws, err := c.DeployFirewall("fw", swishmem.FirewallOptions{Capacity: 1 << 16})
		if err != nil {
			return nil, err
		}
		return func() {
			var out, in, blocked uint64
			for _, f := range fws {
				out += f.Stats.AllowedOut.Value()
				in += f.Stats.AllowedIn.Value()
				blocked += f.Stats.BlockedIn.Value()
			}
			fmt.Printf("firewall: %d outbound allowed, %d inbound allowed, %d blocked\n", out, in, blocked)
		}, nil
	case "ips":
		ipss, err := c.DeployIPS("ips", swishmem.IPSOptions{Capacity: 1 << 12})
		if err != nil {
			return nil, err
		}
		ipss[0].AddSignature([]byte("EVILBYTE"), nil)
		return func() {
			var scanned, matched uint64
			for _, s := range ipss {
				scanned += s.Stats.Scanned.Value()
				matched += s.Stats.Matched.Value()
			}
			fmt.Printf("ips: %d scanned, %d dropped on signature match\n", scanned, matched)
		}, nil
	case "lb":
		lbs, err := c.DeployLoadBalancer("lb", swishmem.LBOptions{
			Capacity: 1 << 16,
			DIPs: []swishmem.Addr{
				swishmem.Addr4(192, 168, 1, 1), swishmem.Addr4(192, 168, 1, 2),
				swishmem.Addr4(192, 168, 1, 3)},
		})
		if err != nil {
			return nil, err
		}
		return func() {
			var asg, fwd uint64
			for _, l := range lbs {
				asg += l.Stats.Assigned.Value()
				fwd += l.Stats.Forwarded.Value()
			}
			fmt.Printf("lb: %d connections assigned, %d packets forwarded\n", asg, fwd)
		}, nil
	case "ddos":
		dets, err := c.DeployDDoS("ddos", swishmem.DDoSOptions{
			Threshold: 2000, Window: 50 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		for _, d := range dets {
			d := d
			d.OnAlarm = func(victim swishmem.FlowKey, est uint64) {
				fmt.Printf("[%8v] ALARM on switch %d: victim %v estimate %d\n",
					c.Now(), d.Switch().Addr(), victim.Dst, est)
			}
		}
		return func() {
			var upd, dropped uint64
			for _, d := range dets {
				upd += d.Stats.Updated.Value()
				dropped += d.Stats.Dropped.Value()
			}
			fmt.Printf("ddos: %d packets accounted, %d shed during attack\n", upd, dropped)
		}, nil
	case "ratelimit":
		lims, err := c.DeployRateLimiter("rl", swishmem.RateLimitOptions{
			Capacity: 1 << 12, BytesPerWindow: 1 << 16, Window: 10 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		return func() {
			var passed, dropped, blocked uint64
			for _, l := range lims {
				passed += l.Stats.Passed.Value()
				dropped += l.Stats.Dropped.Value()
				blocked += l.Stats.Blocked.Value()
			}
			fmt.Printf("ratelimit: %d passed, %d dropped, %d user-block events\n", passed, dropped, blocked)
		}, nil
	default:
		return nil, fmt.Errorf("unknown NF %q", name)
	}
}

// buildTrace synthesizes the right workload shape for the NF.
func buildTrace(rng *rand.Rand, nf string, d time.Duration, flowRate float64) workload.Trace {
	switch nf {
	case "ddos":
		bg, err := workload.GenTrace(rng, workload.TraceConfig{
			Duration: d, FlowsPerSec: flowRate / 2, Servers: 64})
		check(err)
		atk, err := workload.GenAttack(rng, workload.AttackConfig{
			Duration: d, PacketsPerSec: 120_000, Sources: 4000, Victim: 3})
		check(err)
		return workload.Merge(bg, atk)
	case "ratelimit":
		tr, err := workload.GenUserStreams(rng, workload.UserStreamConfig{
			Duration: d, Users: 64, PacketsPerSecPerUser: 2000, HogFactor: 20})
		check(err)
		return tr
	default:
		tr, err := workload.GenTrace(rng, workload.TraceConfig{
			Duration: d, FlowsPerSec: flowRate, Servers: 16})
		check(err)
		return tr
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
