package live

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
	"swishmem/internal/wire"
)

// Fabric runs one SwiShmem node (a switch, or the controller) over the live
// UDP transport while keeping the deterministic single-goroutine engine
// programming model every protocol layer was written against.
//
// The construction: each process owns a private sim.Engine plus a local
// netem.Network that is a switchboard, not a simulated link (netem.NewLocal):
// a send on it is one destination lookup and one handler call inside the Send
// call, with no link, no verdict and no engine event. Local components (the
// PISA switch, protocol nodes, timers) attach and run as in simulation. For
// every remote address the fabric attaches a *relay* endpoint: a send from the
// switch to a remote address calls the relay, which queues an egress record
// for the egress worker: one goroutine that frames each destination's messages
// into wire.Batch datagrams and writes them. Inbound datagrams take the
// reverse trip on the one pump goroutine, which reads the socket itself
// (Node.Poll): it decodes each datagram and sends every message on the local
// network from the sender's relay address, which calls the switch's receive:
// it claims a pipeline slot and schedules the handler task — the one engine
// event a fabric message costs. Both kinds of endpoint only defer, so a
// delivery never re-enters a protocol handler. The pump drives the engine with
// RunUntil(wall-clock elapsed), so every handler and every virtual timer —
// heartbeats, write retries, EWO sync rounds — runs there, after the round's
// posts and reads, and all protocol state stays single-goroutine (no locks
// were added to any protocol package). A running fabric is those two
// goroutines, the pump and the egress worker.
//
// A send to an address with no relay (peer not learned yet, or evicted) is
// dropped in the call: counted (live.fabric.local_dropped), its pooled
// payload released, recovered by the protocol's own retry (at bootstrap, a
// Post-ed send ahead of the PeerList that attaches its relay is one).
//
// Fault injection lives in the transport node (Options.Profile and
// receive-side loss), not the local network, so shaping applies to real
// datagrams only.
type Fabric struct {
	addr netem.Addr
	eng  *sim.Engine
	nw   *netem.Network
	node *Node

	mu      sync.Mutex
	posts   []func()
	started bool
	// exited is set in the same critical section as the final pump's queue
	// swap: a post that finds it set would never run.
	exited bool
	// parked is set while the pump waits in its socket read; kicked records
	// a wake (kick) since the pump last parked or checked.
	parked, kicked bool

	// postsSpare is the drained previous-round slice handed back by the pump
	// so the producer side appends into warm storage instead of growing a
	// fresh slice every round.
	postsSpare []func()

	// lateMu serializes Calls that arrive after the pump has exited and
	// therefore run on their callers.
	lateMu sync.Mutex

	// cnt holds the fabric counters as atomics: the pump and the egress
	// worker bump them lock-free, and FStats snapshots without stalling
	// anyone.
	cnt fabricCounters

	stop chan struct{}
	done chan struct{}

	stopOnce  sync.Once
	startWall time.Time

	// Pump-goroutine state (no locking needed). relays marks the remote
	// addresses that already have a relay endpoint in the local network.
	relays netem.AddrTable[bool]
	system func(from netem.Addr, msg wire.Msg) bool
	// late records how long after its engine deadline each timer wake ran
	// (ns): live.fabric.timer_late.
	late *stats.Histogram

	// Egress. The pump queues send records in epend and hands them to eg in
	// chunks; eg serializes, coalesces, and writes the socket on its own
	// goroutine, then parks released pooled messages on its done list for
	// the pump to collect.
	eg     *egressWorker
	epend  []eRec
	egDone []wire.Msg // the done list the pump last took, swapped back emptied
	egStop chan struct{}
	egWG   sync.WaitGroup

	// viewFree is the pump-owned pool of recycled view sets.
	viewFree []*wire.ViewSet

	// Bootstrap state.
	bootCtrl   netem.Addr
	peersEpoch atomic.Uint32
}

// FabricConfig parameterizes a fabric.
type FabricConfig struct {
	// Addr is this node's SwiShmem address. Required.
	Addr netem.Addr
	// Seed seeds the engine and the transport's fault sampling.
	Seed int64
	// Node configures the underlying transport (bind address, shaping).
	Node Options
	// Deprecated: ignored. Every fabric coalesces on one egress worker.
	Coalesce bool
	// Deprecated: ignored. Every fabric coalesces on one egress worker.
	EgressShards int
}

// FabricStats is a snapshot of the fabric counters (see FStats). The
// underlying counters are atomics shared by the pump and the egress worker.
type FabricStats struct {
	Injected       uint64 // messages decoded and injected into the engine
	SystemConsumed uint64 // messages eaten by the system handler (bootstrap)
	DecodeErr      uint64
	EgressMsgs     uint64 // local sends framed into a batch
	EgressBatches  uint64 // batch datagrams written
	EgressErrs     uint64 // batch datagrams whose write failed
	PacketDropped  uint64 // data packets (unsupported over live) discarded
	Posts          uint64
	PostsDropped   uint64 // posts refused because the pump had already exited
	PumpRounds     uint64
	TimerWakes     uint64 // pump rounds started by the engine deadline, not by a datagram or a kick
}

// fabricCounters is the live, concurrency-safe form of FabricStats.
type fabricCounters struct {
	injected       atomic.Uint64
	systemConsumed atomic.Uint64
	decodeErr      atomic.Uint64
	egressMsgs     atomic.Uint64
	egressBatches  atomic.Uint64
	egressErrs     atomic.Uint64
	packetDropped  atomic.Uint64
	posts          atomic.Uint64
	postsDropped   atomic.Uint64
	pumpRounds     atomic.Uint64
	timerWakes     atomic.Uint64
}

// eRec is one queued egress send: the pump's hand-off unit to the egress
// worker. The netem delivery reference on msg travels with the record; the
// worker moves the message to its done list after the socket write and the
// pump releases it.
type eRec struct {
	to  netem.Addr
	msg wire.Msg
}

// NewFabric builds a stopped fabric: engine, local network, and transport
// node are live, the pump is not. Attach local components (pisa.New against
// Engine()/Network(), protocol nodes, Bootstrap) and then call Start.
func NewFabric(cfg FabricConfig) (*Fabric, error) {
	if cfg.Addr == 0 {
		return nil, fmt.Errorf("live: fabric needs an address")
	}
	cfg.Node.Seed = cfg.Seed
	node, err := Listen(cfg.Addr, cfg.Node)
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cfg.Seed)
	f := &Fabric{
		addr:   cfg.Addr,
		eng:    eng,
		nw:     netem.NewLocal(eng),
		node:   node,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		late:   stats.NewHistogram(),
		egStop: make(chan struct{}),
	}
	f.eg = &egressWorker{f: f, wake: make(chan struct{}, 1)}
	node.SetRawHandler(f.onDatagram)
	return f, nil
}

// Engine returns the fabric's private engine. Before Start it may be used
// freely; after Start only from the pump goroutine (Post/Call).
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Network returns the fabric's local network (for pisa.New).
func (f *Fabric) Network() *netem.Network { return f.nw }

// Node returns the transport node (shaping control, stats).
func (f *Fabric) Node() *Node { return f.node }

// AddrPort returns the UDP endpoint other processes reach this fabric at.
func (f *Fabric) AddrPort() netip.AddrPort { return f.node.AddrPort() }

// SetSystemHandler installs a hook that sees every inbound message before
// injection; returning true consumes it. It runs on the pump goroutine. The
// controller uses it for Hello/Heartbeat handling without a switch model.
func (f *Fabric) SetSystemHandler(h func(from netem.Addr, msg wire.Msg) bool) {
	f.system = h
}

// AddRemote registers a remote node: transport peer plus local relay
// endpoint. Safe before Start; after Start it defers to the pump.
func (f *Fabric) AddRemote(addr netem.Addr, ap netip.AddrPort) {
	f.node.AddPeerAddrPort(addr, ap)
	f.onPump(func() { f.ensureRelay(addr) })
}

// ensureRelay attaches the egress relay endpoint for a remote address.
// Pump goroutine (or pre-start) only.
func (f *Fabric) ensureRelay(peer netem.Addr) {
	if peer == f.addr || f.relays.Get(peer) {
		return
	}
	f.relays.Set(peer, true)
	to := peer
	f.nw.Attach(to, func(_ netem.Addr, payload any, _ int) {
		f.egress(to, payload)
	})
}

// egressHandoff is the mid-round hand-off threshold: once this many records
// are pending the pump pushes them over so serialization overlaps with the
// rest of the engine round.
const egressHandoff = 64

// egress relays one local netem delivery onto the UDP socket. The
// delivery's payload reference passes to the queued record; the egress
// worker marshals and writes off the pump goroutine and hands the message
// back through its done list for release. The pump hands off what is left
// at the end of every round, so coalescing never delays a message past the
// round that produced it.
func (f *Fabric) egress(to netem.Addr, payload any) {
	msg, ok := payload.(wire.Msg)
	if !ok {
		f.cnt.packetDropped.Add(1)
		return
	}
	f.epend = append(f.epend, eRec{to: to, msg: msg})
	if len(f.epend) >= egressHandoff {
		f.handoffEgress()
	}
}

// handoffEgress pushes the pending records into the worker's queue and
// wakes it; the worker flushes its batches when its queue drains. Pump
// goroutine only.
func (f *Fabric) handoffEgress() {
	if len(f.epend) == 0 {
		return
	}
	w := f.eg
	w.mu.Lock()
	w.queue = append(w.queue, f.epend...)
	w.mu.Unlock()
	clear(f.epend)
	f.epend = f.epend[:0]
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// collectEgressDone releases the pooled messages the egress worker has
// finished with since the last round. Pump goroutine only: the messages'
// free lists (view sets, sender pools) are pump-owned.
func (f *Fabric) collectEgressDone() {
	w := f.eg
	w.mu.Lock()
	f.egDone, w.done = w.done, f.egDone[:0]
	w.mu.Unlock()
	for i, m := range f.egDone {
		f.releaseMsg(m)
		f.egDone[i] = nil
	}
}

// Bootstrap wires this fabric to the controller's discovery service: the
// controller endpoint is registered (peer + relay, so heartbeats flow
// immediately), and a Hello leaves at Start and then every period until the
// controller's PeerList arrives. PeerLists are applied automatically: every
// listed peer is registered and relayed, after which chain and group traffic
// to any member flows. Call before Start.
func (f *Fabric) Bootstrap(ctrl netem.Addr, ctrlEP netip.AddrPort, period sim.Duration) {
	f.bootCtrl = ctrl
	f.node.AddPeerAddrPort(ctrl, ctrlEP)
	f.ensureRelay(ctrl)
	hello := &wire.Hello{From: uint16(f.addr), Gen: 1}
	announce := func() {
		if f.peersEpoch.Load() == 0 {
			_ = f.node.Send(ctrl, hello)
		}
	}
	// Every's first tick is one period out; discovery should not idle that long.
	f.eng.Schedule(f.eng.Now(), announce)
	f.eng.Every(period, announce)
}

// applyPeerList merges a controller directory broadcast. Pump goroutine.
func (f *Fabric) applyPeerList(pl *wire.PeerList) {
	if pl.Epoch < f.peersEpoch.Load() {
		return
	}
	f.peersEpoch.Store(pl.Epoch)
	for i := range pl.Peers {
		e := &pl.Peers[i]
		if netem.Addr(e.Addr) == f.addr {
			continue
		}
		ap := netip.AddrPortFrom(netip.AddrFrom4(e.IP), e.Port)
		f.node.AddPeerAddrPort(netem.Addr(e.Addr), ap)
		f.ensureRelay(netem.Addr(e.Addr))
	}
}

// onDatagram is the transport raw handler. It runs on the pump, inside
// Node.Poll: it learns an unknown sender from the kernel-reported source and
// delivers the payload in place (the view decode copies it out of the node's
// read buffer).
func (f *Fabric) onDatagram(from netem.Addr, src netip.AddrPort, payload []byte) {
	f.node.AddPeerIfAbsent(from, src)
	f.deliver(from, payload)
}

// aLongTimeAgo is the read deadline a kick sets: already passed, so the
// pump's socket read returns at once.
var aLongTimeAgo = time.Unix(1, 0)

// kick wakes the pump: a parked pump's socket read ends on a read deadline
// in the past; one not parked runs one more round before it parks.
func (f *Fabric) kick() {
	f.mu.Lock()
	f.kickLocked()
	f.mu.Unlock()
}

// kickLocked is kick with f.mu held. The pump parks under the same lock, so
// no kick is lost between its last look at the posts and its read.
func (f *Fabric) kickLocked() {
	if f.parked && !f.kicked {
		_ = f.node.conn.SetReadDeadline(aLongTimeAgo)
	}
	f.kicked = true
}

// Post schedules fn on the pump goroutine (the only place engine-side state
// may be touched after Start). Once the pump has exited nothing would ever
// run fn, so it is dropped and counted (live.fabric.posts_dropped).
func (f *Fabric) Post(fn func()) {
	if !f.post(fn) {
		f.cnt.postsDropped.Add(1)
	}
}

// post queues fn unless the pump has taken its final drain.
func (f *Fabric) post(fn func()) bool {
	f.mu.Lock()
	if f.exited {
		f.mu.Unlock()
		return false
	}
	f.posts = append(f.posts, fn)
	f.kickLocked()
	f.mu.Unlock()
	f.cnt.posts.Add(1)
	return true
}

// Call runs fn on the pump goroutine and waits for it. Must not be called
// from the pump goroutine itself. After Stop the engine is quiescent, so fn
// runs on the caller instead (one at a time) once the pump is gone.
func (f *Fabric) Call(fn func()) {
	done := make(chan struct{})
	if f.post(func() {
		defer close(done)
		fn()
	}) {
		<-done
		return
	}
	<-f.done
	f.lateMu.Lock()
	defer f.lateMu.Unlock()
	fn()
}

// onPump runs fn inline before Start (setup is single-threaded) and defers
// to Post afterwards.
func (f *Fabric) onPump(fn func()) {
	f.mu.Lock()
	started := f.started
	f.mu.Unlock()
	if !started {
		fn()
		return
	}
	f.Post(fn)
}

// Start launches the pump and the egress worker: from here on the engine
// advances on wall time.
func (f *Fabric) Start() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.startWall = time.Now()
	f.mu.Unlock()
	f.egWG.Add(1)
	go f.eg.loop()
	go f.loop()
}

// stopEgress runs after the final pump handed every pending record over:
// the worker drains its queue, flushes its batches, and exits; the pump
// then releases whatever it finished with. Pump goroutine only.
func (f *Fabric) stopEgress() {
	close(f.egStop)
	f.egWG.Wait()
	f.collectEgressDone()
}

// Stop halts the pump and closes the transport. Idempotent.
func (f *Fabric) Stop() {
	f.stopOnce.Do(func() {
		f.mu.Lock()
		if !f.started {
			// No pump will ever run: a later Start must not launch one, and
			// late posts and Calls behave as after any other Stop.
			f.started, f.exited = true, true
			close(f.done)
		}
		close(f.stop)
		f.kickLocked()
		f.mu.Unlock()
		<-f.done
		_ = f.node.Close()
	})
}

// readsPerRound bounds the datagrams one pump round reads before it runs
// the engine, so a flooded socket cannot starve the round's timers.
const readsPerRound = 64

// loop is the pump: run a round, then park in a blocking socket read until a
// datagram arrives, the next engine deadline passes (the socket's read
// deadline), or a kick ends it — Post, Stop, and the egress worker's full done
// list kick. With nothing scheduled there is no deadline, so a fabric with an
// empty queue costs zero wakeups. The deadline is re-armed only when it
// changed or a kick spent it. Rounds the deadline started are counted apart
// (TimerWakes) and their lateness observed (live.fabric.timer_late): they are
// what the node's own timers cost, as opposed to the work others sent it.
func (f *Fabric) loop() {
	defer close(f.done)
	var armed time.Time // the socket's read deadline; zero: none
	for {
		f.pump(false)
		var due time.Time
		if next, ok := f.eng.NextAt(); ok {
			due = f.startWall.Add(time.Duration(next))
		}
		if !due.Equal(armed) {
			_ = f.node.conn.SetReadDeadline(due)
			armed = due
		}
		f.mu.Lock()
		select {
		case <-f.stop:
			f.mu.Unlock()
			f.pump(true) // final drain so Call-ers are never stranded
			f.stopEgress()
			return
		default:
		}
		if len(f.posts) > 0 || f.kicked {
			f.kicked = false
			f.mu.Unlock()
			continue
		}
		f.parked = true
		f.mu.Unlock()
		got, _ := f.node.Poll(true)
		f.mu.Lock()
		kicked := f.kicked
		f.parked, f.kicked = false, false
		f.mu.Unlock()
		switch {
		case kicked:
			armed = aLongTimeAgo
		case !got && !armed.IsZero():
			f.cnt.timerWakes.Add(1)
			f.late.ObserveDuration(time.Since(armed))
		}
	}
}

// pump runs queued posts, reads what the socket holds (up to readsPerRound
// datagrams), advances the engine to the current wall-clock time, and
// hands the round's egress records to the worker. Reads come before the
// engine, so datagrams that queued while the process stalled are in before
// the timers that came due meanwhile fire. final marks the last round: from
// its queue swap on, posts are refused.
func (f *Fabric) pump(final bool) {
	f.mu.Lock()
	f.exited = final
	posts := f.posts
	f.posts = f.postsSpare
	f.postsSpare = nil
	f.mu.Unlock()
	f.cnt.pumpRounds.Add(1)

	for _, fn := range posts {
		fn()
	}
	f.collectEgressDone()
	for i := 0; i < readsPerRound; i++ {
		if got, _ := f.node.Poll(false); !got {
			break
		}
	}
	f.eng.RunUntil(sim.Time(time.Since(f.startWall)))
	f.handoffEgress()

	// Hand the drained slice back as next round's spare so steady-state
	// rounds reuse warm storage.
	clear(posts)
	f.mu.Lock()
	f.postsSpare = posts[:0]
	f.mu.Unlock()
}

// deliver decodes one inbound payload through a pooled view set — expanding
// coalesced batches frame by frame — and injects the result. Bad frames
// inside a batch are skipped and counted; a framing-level error discards
// the datagram. The sender's relay is ensured here, once per datagram that
// decoded to anything, so the injected deliveries below have a source
// endpoint. Pump goroutine only.
func (f *Fabric) deliver(from netem.Addr, payload []byte) {
	vs := f.getViewSet()
	msgs, errs := vs.Decode(payload)
	if errs > 0 {
		f.cnt.decodeErr.Add(uint64(errs))
	}
	if len(msgs) > 0 {
		f.ensureRelay(from)
	}
	for _, m := range msgs {
		f.inject(from, m)
	}
	vs.Release() // walk reference; messages hold their own
}

// getViewSet pops a recycled set from the pump-owned pool or creates one
// wired to return there. Pump goroutine only.
func (f *Fabric) getViewSet() *wire.ViewSet {
	if n := len(f.viewFree); n > 0 {
		vs := f.viewFree[n-1]
		f.viewFree[n-1] = nil
		f.viewFree = f.viewFree[:n-1]
		return vs
	}
	return wire.NewViewSet(func(vs *wire.ViewSet) {
		f.viewFree = append(f.viewFree, vs)
	})
}

// inject hands one decoded message to the system handler or injects it as a
// local netem delivery from the sender's relay address, then drops the
// decode path's creator reference: from here the message is kept alive by
// the netem delivery (released by the receiving switch after its handler
// runs) or it is done. Pump goroutine only.
func (f *Fabric) inject(from netem.Addr, msg wire.Msg) {
	if pl, ok := msg.(*wire.PeerList); ok && f.bootCtrl != 0 && from == f.bootCtrl {
		f.applyPeerList(pl)
		f.cnt.systemConsumed.Add(1)
		return
	}
	if f.system != nil && f.system(from, msg) {
		f.cnt.systemConsumed.Add(1)
		f.releaseMsg(msg)
		return
	}
	f.cnt.injected.Add(1)
	f.nw.Send(from, f.addr, msg, msg.Size())
	f.releaseMsg(msg)
}

func (f *Fabric) releaseMsg(msg wire.Msg) {
	if r, ok := msg.(netem.Releasable); ok {
		r.Release()
	}
}

// FStats snapshots the fabric counters (thread-safe).
func (f *Fabric) FStats() FabricStats {
	return FabricStats{
		Injected:       f.cnt.injected.Load(),
		SystemConsumed: f.cnt.systemConsumed.Load(),
		DecodeErr:      f.cnt.decodeErr.Load(),
		EgressMsgs:     f.cnt.egressMsgs.Load(),
		EgressBatches:  f.cnt.egressBatches.Load(),
		EgressErrs:     f.cnt.egressErrs.Load(),
		PacketDropped:  f.cnt.packetDropped.Load(),
		Posts:          f.cnt.posts.Load(),
		PostsDropped:   f.cnt.postsDropped.Load(),
		PumpRounds:     f.cnt.pumpRounds.Load(),
		TimerWakes:     f.cnt.timerWakes.Load(),
	}
}

// RegisterMetrics exposes transport and fabric counters on a metrics
// registry under the given label (e.g. `node=3`). engine_events,
// local_dropped and timer_late are the engine's, the local network's and the
// pump's own and pump-owned: snapshot the registry under Call.
func (f *Fabric) RegisterMetrics(reg *obs.Registry, labels string) {
	reg.AddCounterFunc("live.tx.msgs", labels, func() uint64 { return f.node.Stats().Sent })
	reg.AddCounterFunc("live.tx.bytes", labels, func() uint64 { return f.node.Stats().BytesSent })
	reg.AddCounterFunc("live.tx.dropped", labels, func() uint64 { return f.node.Stats().TxDropped })
	reg.AddCounterFunc("live.tx.dup", labels, func() uint64 { return f.node.Stats().TxDup })
	reg.AddCounterFunc("live.tx.delayed", labels, func() uint64 { return f.node.Stats().TxDelayed })
	reg.AddCounterFunc("live.tx.corrupted", labels, func() uint64 { return f.node.Stats().TxCorrupted })
	reg.AddCounterFunc("live.tx.blackholed", labels, func() uint64 { return f.node.Stats().TxBlackholed })
	reg.AddCounterFunc("live.tx.rejected", labels, func() uint64 { return f.node.Stats().TxRejected })
	reg.AddCounterFunc("live.rx.msgs", labels, func() uint64 { return f.node.Stats().Received })
	reg.AddCounterFunc("live.rx.bytes", labels, func() uint64 { return f.node.Stats().BytesReceived })
	reg.AddCounterFunc("live.rx.dropped", labels, func() uint64 { return f.node.Stats().Dropped })
	reg.AddCounterFunc("live.rx.decodeerr", labels, func() uint64 { return f.node.Stats().DecodeErr })
	reg.AddCounterFunc("live.fabric.injected", labels, func() uint64 { return f.FStats().Injected })
	reg.AddCounterFunc("live.fabric.system", labels, func() uint64 { return f.FStats().SystemConsumed })
	reg.AddCounterFunc("live.fabric.egress", labels, func() uint64 { return f.FStats().EgressMsgs })
	reg.AddCounterFunc("live.fabric.egressbatches", labels, func() uint64 { return f.FStats().EgressBatches })
	reg.AddCounterFunc("live.fabric.egresserr", labels, func() uint64 { return f.FStats().EgressErrs })
	reg.AddCounterFunc("live.fabric.pktdropped", labels, func() uint64 { return f.FStats().PacketDropped })
	reg.AddCounterFunc("live.fabric.posts_dropped", labels, func() uint64 { return f.FStats().PostsDropped })
	reg.AddCounterFunc("live.fabric.pumps", labels, func() uint64 { return f.FStats().PumpRounds })
	reg.AddCounterFunc("live.fabric.timer_wakes", labels, func() uint64 { return f.FStats().TimerWakes })
	reg.AddHistogram("live.fabric.timer_late", labels, f.late)
	reg.AddCounterFunc("live.fabric.engine_events", labels, func() uint64 { return f.eng.Processed() })
	reg.AddCounterFunc("live.fabric.local_dropped", labels, func() uint64 { return f.nw.Totals().MsgsDropped })
	reg.AddGaugeFunc("live.fabric.peers", labels, func() float64 { return float64(len(f.node.Peers())) })
}
