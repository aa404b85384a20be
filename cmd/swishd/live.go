package main

// swishd -live: the cross-process deployment mode. Instead of the simulated
// cluster, each process runs one node over the live UDP transport
// (internal/netem/live): a controller process is the discovery/config point,
// member processes run one switch each with the chain + EWO protocols
// unchanged, and the soak role runs a whole loopback cluster in-process for
// validation.
//
//	swishd -live controller -live.listen 127.0.0.1:7000 -live.members 3
//	swishd -live member -live.addr 1 -live.controller 127.0.0.1:7000
//	swishd -live soak -live.budget 2s -live.loss 0.05 -live.replay trace.bin
//	swishd -live soak -live.corrupt 0.08 -live.nthloss 7 -live.asym 0.15 -live.pause 100ms

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"swishmem/internal/controller"
	"swishmem/internal/livecluster"
	"swishmem/internal/netem"
	"swishmem/internal/netem/live"
	"swishmem/internal/obs"
	"swishmem/internal/workload"
)

var (
	liveListen  = flag.String("live.listen", "127.0.0.1:0", "UDP bind address (controller/member)")
	liveAddr    = flag.Int("live.addr", 1, "member SwiShmem address (member role)")
	liveCtrl    = flag.String("live.controller", "", "controller UDP endpoint (member role)")
	liveMembers = flag.Int("live.members", 3, "expected cluster size")
	liveLoss    = flag.Float64("live.loss", 0.05, "injected outbound loss (member/soak)")
	liveCorrupt = flag.Float64("live.corrupt", 0,
		"injected payload bit-corruption rate; flipped frames must die at the receiver's CRC (member/soak)")
	liveNthLoss = flag.Int("live.nthloss", 0,
		"deterministically drop every Nth outbound datagram, 0 = off (member/soak)")
	liveAsym = flag.Float64("live.asym", 0,
		"extra one-way loss member 0 -> last member, 0 = off (soak; per-direction profile)")
	livePause = flag.Duration("live.pause", 0,
		"freeze one member mid-soak for this long, 0 = off; keep under the 200ms failure timeout (soak)")
	liveBudget  = flag.Duration("live.budget", 2*time.Second, "soak workload budget")
	liveReplay  = flag.String("live.replay", "", "trafficgen binary trace driving the soak workload")
	liveMetrics = flag.String("live.metrics", "", "write transport metrics to this file (soak)")
	httpAddr    = flag.String("http", "",
		"serve /metrics (Prometheus) and /timeline (JSONL) over HTTP on this address (live controller/member)")
	liveTimelineF = flag.String("live.timeline", "",
		"append the JSONL metrics timeline to this file (all live roles)")
)

// liveTelemetry is the continuous observability of one live node: a metrics
// timeline sampled every second under the node's pump lock, plus an optional
// HTTP endpoint serving /metrics and /timeline. Every registry read — scrape
// snapshots, stream ticks, tail reads — runs under Fabric.Call, so scrapes
// serialize with the pump instead of racing it.
type liveTelemetry struct {
	fab    *live.Fabric
	reg    *obs.Registry
	stream *obs.Stream
	srv    *obs.TelemetryServer
	out    *os.File
	stop   chan struct{}
	done   chan struct{}
}

// startLiveTelemetry wires the node's timeline (to -live.timeline, or
// discarded when unset, with the tail ring kept either way) and, with
// -http set, the scrape endpoint.
func startLiveTelemetry(fab *live.Fabric, reg *obs.Registry, node string) (*liveTelemetry, error) {
	lt := &liveTelemetry{fab: fab, reg: reg, stop: make(chan struct{}), done: make(chan struct{})}
	var w io.Writer = io.Discard
	if *liveTimelineF != "" {
		f, err := os.Create(*liveTimelineF)
		if err != nil {
			return nil, err
		}
		lt.out, w = f, f
	}
	lt.stream = obs.NewStream(reg, w, obs.StreamConfig{
		Interval: time.Second, Node: node, Tail: 120,
	})
	start := time.Now()
	go func() {
		defer close(lt.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-lt.stop:
				return
			case <-tick.C:
				ts := time.Since(start).Nanoseconds()
				fab.Call(func() { lt.stream.Tick(ts) })
			}
		}
	}()
	if *httpAddr != "" {
		srv, err := obs.StartTelemetry(*httpAddr,
			func() (obs.Snapshot, error) {
				var s obs.Snapshot
				fab.Call(func() { s = reg.Snapshot() })
				return s, nil
			},
			func() []string {
				var rows []string
				fab.Call(func() { rows = lt.stream.Tail() })
				return rows
			})
		if err != nil {
			lt.Close()
			return nil, err
		}
		lt.srv = srv
		fmt.Printf("swishd: serving /metrics and /timeline on http://%s\n", srv.Addr())
	}
	return lt, nil
}

// Close flushes the final snapshot to stdout, closes the timeline file
// cleanly, and stops the scrape endpoint — the SIGINT/SIGTERM path.
func (lt *liveTelemetry) Close() {
	close(lt.stop)
	<-lt.done
	if lt.srv != nil {
		lt.srv.Close()
	}
	var snap obs.Snapshot
	lt.fab.Call(func() {
		snap = lt.reg.Snapshot()
		lt.stream.Close()
	})
	if lt.out != nil {
		if err := lt.out.Close(); err == nil {
			fmt.Printf("swishd: timeline closed (%d rows)\n", lt.stream.Rows())
		}
	}
	fmt.Println("swishd: final metrics snapshot:")
	snap.WriteText(os.Stdout)
}

func runLive(role string) {
	switch role {
	case "controller":
		runLiveController()
	case "member":
		runLiveMember()
	case "soak":
		runLiveSoak()
	default:
		log.Fatalf("swishd: unknown -live role %q (want controller | member | soak)", role)
	}
}

func runLiveController() {
	addrs := make([]netem.Addr, *liveMembers)
	for i := range addrs {
		addrs[i] = netem.Addr(i + 1)
	}
	fab, ctl, err := livecluster.NewLiveController(1, *liveListen, addrs, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer fab.Stop()
	fab.Start()
	fmt.Printf("swishd: live controller on %s, expecting %d members\n", fab.AddrPort(), *liveMembers)
	reg := obs.NewRegistry()
	fab.RegisterMetrics(reg, "node=ctrl")
	reg.AddGaugeFunc("live.members_alive", "node=ctrl", func() float64 {
		return float64(len(ctl.AliveMembers())) // gauge funcs run under fab.Call
	})
	lt, err := startLiveTelemetry(fab, reg, "ctrl")
	if err != nil {
		log.Fatalf("swishd: telemetry: %v", err)
	}
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	sig := sigChan()
	for {
		select {
		case <-sig:
			fmt.Println("swishd: controller shutting down")
			lt.Close()
			return
		case <-tick.C:
			var stats controller.LiveStats
			var members []netem.Addr
			fab.Call(func() {
				stats = ctl.Stats
				members = ctl.AliveMembers()
			})
			fmt.Printf("[ctrl] alive=%v hellos=%d heartbeats=%d failures=%d\n",
				members, stats.Hellos, stats.Heartbeats, stats.FailuresSeen)
		}
	}
}

func runLiveMember() {
	if *liveCtrl == "" {
		log.Fatal("swishd: -live member needs -live.controller host:port")
	}
	ep, err := netip.ParseAddrPort(*liveCtrl)
	if err != nil {
		log.Fatalf("swishd: bad -live.controller: %v", err)
	}
	m, err := livecluster.NewMember(livecluster.MemberConfig{
		Addr:         netem.Addr(*liveAddr),
		Seed:         int64(*liveAddr),
		ControllerEP: ep,
		Listen:       *liveListen,
		Profile: netem.LinkProfile{LossRate: *liveLoss,
			CorruptRate: *liveCorrupt, LossEveryN: *liveNthLoss},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Stop()
	m.Start()
	fmt.Printf("swishd: live member %d on %s -> controller %s (loss=%.1f%%)\n",
		*liveAddr, m.Fabric.AddrPort(), ep, *liveLoss*100)
	node := strconv.Itoa(*liveAddr)
	reg := obs.NewRegistry()
	m.RegisterMetrics(reg, "node="+node)
	lt, err := startLiveTelemetry(m.Fabric, reg, node)
	if err != nil {
		log.Fatalf("swishd: telemetry: %v", err)
	}
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	sig := sigChan()
	for {
		select {
		case <-sig:
			fmt.Println("swishd: member shutting down")
			lt.Close()
			return
		case <-tick.C:
			var epoch uint32
			var group int
			m.Fabric.Call(func() {
				epoch = m.Strong.Node().Chain().Epoch
				group = len(m.Counter.Node().Group())
			})
			st := m.Fabric.Node().Stats()
			fmt.Printf("[member %d] chain epoch=%d group=%d tx=%d rx=%d txdrop=%d\n",
				*liveAddr, epoch, group, st.Sent, st.Received, st.TxDropped)
		}
	}
}

func runLiveSoak() {
	cfg := livecluster.SoakConfig{
		Members:     *liveMembers,
		Seed:        1,
		Budget:      *liveBudget,
		Loss:        *liveLoss,
		CorruptRate: *liveCorrupt,
		LossEveryN:  *liveNthLoss,
		AsymLoss:    *liveAsym,
		PauseFor:    *livePause,
	}
	// SIGINT/SIGTERM ends the workload early but still runs the oracles and
	// renders the telemetry artifacts.
	stop := make(chan struct{})
	go func() {
		<-sigChan()
		fmt.Println("swishd: soak interrupted, finishing up")
		close(stop)
	}()
	cfg.Stop = stop
	var timelineFile *os.File
	if *liveTimelineF != "" {
		f, err := os.Create(*liveTimelineF)
		if err != nil {
			log.Fatalf("swishd: timeline: %v", err)
		}
		timelineFile, cfg.Timeline = f, f
	}
	if *liveReplay != "" {
		tr, err := workload.ReadBinaryFile(*liveReplay)
		if err != nil {
			log.Fatalf("swishd: replay trace: %v", err)
		}
		cfg.Trace = tr
		fmt.Printf("swishd: soak driven by %d-packet trace %s\n", len(tr), *liveReplay)
	}
	fmt.Printf("swishd: live soak: %d members, budget %v, loss %.1f%% corrupt %.1f%% nthloss %d asym %.1f%% pause %v\n",
		cfg.Members, *liveBudget, *liveLoss*100, *liveCorrupt*100, *liveNthLoss, *liveAsym*100, *livePause)
	rep, err := livecluster.Soak(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("soak: %d strong writes (%d committed), %d counter adds, %d lww writes, %d dropped on a local network\n",
		rep.StrongWrites, rep.Committed, rep.CounterAdds, rep.LWWWrites, rep.LocalDropped)
	if rep.TxCorrupted > 0 || rep.PauseRounds > 0 {
		fmt.Printf("soak: chaos: %d corrupted tx, %d CRC/decode rejects, %d pause rounds\n",
			rep.TxCorrupted, rep.RxDecodeErr, rep.PauseRounds)
	}
	if timelineFile != nil {
		check(timelineFile.Close())
		fmt.Printf("wrote %d timeline rows to %s\n", rep.TimelineRows, *liveTimelineF)
	}
	if *liveMetrics != "" {
		check(os.WriteFile(*liveMetrics, []byte(rep.Metrics), 0o644))
		fmt.Printf("wrote metrics to %s\n", *liveMetrics)
	}
	if rep.Failed() {
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		if rep.FlightRecord != "" {
			fmt.Fprintf(os.Stderr, "%s", rep.FlightRecord)
		}
		os.Exit(1)
	}
	fmt.Println("ok all oracles")
}

func sigChan() chan os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return ch
}
