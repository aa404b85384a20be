package live

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/obs"
	"swishmem/internal/packet"
	"swishmem/internal/sim"
	"swishmem/internal/wire"
)

// Fabric runs one SwiShmem node (a switch, or the controller) over the live
// UDP transport while keeping the deterministic single-goroutine engine
// programming model every protocol layer was written against.
//
// The construction: each process owns a private sim.Engine plus a local
// netem.Network that is a switchboard, not a simulated link (netem.NewLocal):
// a send on it runs the destination's handler inside the Send call, after the
// usual checks, accounting, payload Ref and trace span, and costs no engine
// event. Local components (the PISA switch, protocol nodes, timers) attach
// and run exactly as in simulation. For every remote address the fabric
// attaches a *relay* endpoint: a send from the switch to a remote address
// calls the relay, which queues an egress record for the socket (inline
// egress frames the message on the spot). Inbound datagrams take the reverse
// trip: the socket's read loop (raw, allocation-free) parks the bytes in an
// inbox; the pump goroutine decodes them and sends each message on the local
// network from the sender's relay address, which calls the switch's receive:
// it claims a pipeline slot and schedules the handler task — the one engine
// event a fabric message costs. Both kinds of endpoint only defer, so a
// delivery never re-enters a protocol handler. The pump drives the engine
// with RunUntil(wall-clock elapsed), so every handler and every virtual timer
// — heartbeats, write retries, EWO sync rounds — runs there, after the
// round's posts and injects, and all protocol state stays single-goroutine
// (no locks were added to any protocol package).
//
// A send to an address with no relay (peer not learned yet, or evicted) is
// dropped in the call: counted (live.fabric.local_dropped), its pooled
// payload released, recovered by the protocol's own retry. A handler cannot
// tell this from the queued delivery it replaced, a Post-ed closure that
// sends directly can: a relay that an inbound PeerList attaches later in the
// same round no longer catches its message (bootstrap only).
//
// Fault injection lives in the transport node (Options.Profile and
// receive-side loss), not the local network, so shaping applies to real
// datagrams only.
type Fabric struct {
	cfg  FabricConfig
	addr netem.Addr
	eng  *sim.Engine
	nw   *netem.Network
	node *Node

	mu      sync.Mutex
	inbox   []inbound
	inFree  [][]byte
	posts   []func()
	started bool
	// exited is set in the same critical section as the final pump's queue
	// swap: a post that finds it set would never run.
	exited bool

	// inboxSpare/postsSpare are the drained previous-round slices handed
	// back by the pump so the producer side appends into warm storage
	// instead of growing a fresh slice every round.
	inboxSpare []inbound
	postsSpare []func()

	// lateMu serializes Calls that arrive after the pump has exited and
	// therefore run on their callers.
	lateMu sync.Mutex

	// cnt holds the fabric counters as atomics: the pump and the egress
	// workers bump them lock-free, and FStats snapshots without stalling
	// anyone.
	cnt fabricCounters

	wake chan struct{}
	stop chan struct{}
	done chan struct{}

	stopOnce  sync.Once
	startWall time.Time

	// Pump-goroutine state (no locking needed). relays marks the remote
	// addresses that already have a relay endpoint in the local network.
	relays netem.AddrTable[bool]
	system func(from netem.Addr, msg wire.Msg) bool

	// Egress. eworkers always holds at least one worker. With EgressShards
	// <= 1 that worker is called synchronously on the pump goroutine and
	// epend is nil. With K > 1 each worker runs its own goroutine: the pump
	// queues send records per worker (destination-affine, so per-peer frame
	// order is preserved) and hands them off in chunks; workers serialize,
	// coalesce, and write the socket, then park released pooled messages on
	// their done lists for the pump to collect.
	eworkers []*egressWorker
	epend    [][]eRec
	egDone   []wire.Msg // pump-side scratch for collecting done lists
	egStop   chan struct{}
	egWG     sync.WaitGroup

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
	// Coalesce packs messages relayed to one destination during a single
	// pump round into multi-update wire.Batch datagrams, flushed at the end
	// of the round or when a batch would outgrow coalesceLimit. An EWO sync
	// round's run of updates then costs one datagram instead of N. Off by
	// default (one datagram per message).
	Coalesce bool
	// EgressShards moves per-destination serialization, batch packing, and
	// socket writes off the pump goroutine onto this many egress workers,
	// keyed by destination address (per-peer frame order is preserved
	// because one destination always maps to one worker). 0 or 1 runs the
	// same routine inline on the pump goroutine.
	EgressShards int
}

// FabricStats is a snapshot of the fabric counters (see FStats). The
// underlying counters are atomics shared by the pump and the egress workers.
type FabricStats struct {
	Injected       uint64 // messages decoded and injected into the engine
	SystemConsumed uint64 // messages eaten by the system handler (bootstrap)
	DecodeErr      uint64
	EgressMsgs     uint64 // local sends relayed onto the socket
	EgressBatches  uint64 // coalesced datagrams flushed (Coalesce mode only)
	EgressErrs     uint64
	PacketDropped  uint64 // data packets (unsupported over live) discarded
	Posts          uint64
	PostsDropped   uint64 // posts refused because the pump had already exited
	PumpRounds     uint64
	TimerWakes     uint64 // pump rounds started by the engine deadline, not by a signal
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

// eRec is one queued egress send: the pump's hand-off unit to an egress
// worker. The netem delivery reference on msg travels with the record; the
// worker moves the message to its done list after the socket write and the
// pump releases it.
type eRec struct {
	to  netem.Addr
	msg wire.Msg
}

type inbound struct {
	from netem.Addr
	buf  []byte
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
		cfg:  cfg,
		addr: cfg.Addr,
		eng:  eng,
		nw:   netem.NewLocal(eng),
		node: node,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.eworkers = make([]*egressWorker, max(cfg.EgressShards, 1))
	for i := range f.eworkers {
		f.eworkers[i] = newEgressWorker(f)
	}
	if cfg.EgressShards > 1 {
		f.epend = make([][]eRec, cfg.EgressShards)
		f.egStop = make(chan struct{})
	}
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

// Addr returns the fabric's home address.
func (f *Fabric) Addr() netem.Addr { return f.addr }

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

// egressHandoff is the mid-round hand-off threshold: once a worker's
// pending queue reaches this many records the pump pushes them over so
// serialization overlaps with the rest of the engine round.
const egressHandoff = 64

// egress relays one local netem delivery onto the UDP socket. The
// delivery's payload reference passes to us. Inline, the one worker frames
// or sends the message synchronously, so a pooled payload releases right
// after; with EgressShards the record (and the payload reference) is queued
// to the destination's worker instead, which marshals and writes off the
// pump goroutine and hands the message back through its done list for
// release. Either way flushEgress closes the round, so coalescing never
// delays a message past the round that produced it.
func (f *Fabric) egress(to netem.Addr, payload any) {
	msg, ok := payload.(wire.Msg)
	if !ok {
		if p, ok := payload.(*packet.Packet); ok {
			p.Recycle()
		}
		f.cnt.packetDropped.Add(1)
		return
	}
	if f.epend == nil {
		f.eworkers[0].sendOne(to, msg)
		f.releaseMsg(msg)
		return
	}
	i := int(to) % len(f.eworkers)
	f.epend[i] = append(f.epend[i], eRec{to: to, msg: msg})
	if len(f.epend[i]) >= egressHandoff {
		f.handoffEgress(i)
	}
}

// handoffEgress pushes one worker's pending records into its queue and
// wakes it. Pump goroutine only.
func (f *Fabric) handoffEgress(i int) {
	w := f.eworkers[i]
	pend := f.epend[i]
	w.mu.Lock()
	w.queue = append(w.queue, pend...)
	w.mu.Unlock()
	for j := range pend {
		pend[j] = eRec{}
	}
	f.epend[i] = pend[:0]
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// flushEgress closes out the round's egress: the inline worker flushes every
// batch opened during this pump round; with EgressShards every still-pending
// record goes to its worker (workers flush their own batches when their
// queues drain).
func (f *Fabric) flushEgress() {
	if f.epend == nil {
		f.eworkers[0].flushBatches()
		return
	}
	for i := range f.epend {
		if len(f.epend[i]) > 0 {
			f.handoffEgress(i)
		}
	}
}

// collectEgressDone releases the pooled messages the egress workers have
// finished with since the last round. Pump goroutine only: the messages'
// free lists (view sets, sender pools) are pump-owned.
func (f *Fabric) collectEgressDone() {
	for _, w := range f.eworkers {
		w.mu.Lock()
		if len(w.done) == 0 {
			w.mu.Unlock()
			continue
		}
		f.egDone = append(f.egDone[:0], w.done...)
		for i := range w.done {
			w.done[i] = nil
		}
		w.done = w.done[:0]
		w.mu.Unlock()
		for i, m := range f.egDone {
			if r, ok := m.(netem.Releasable); ok {
				r.Release()
			}
			f.egDone[i] = nil
		}
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

// Bootstrapped reports whether a PeerList has been applied (thread-safe).
func (f *Fabric) Bootstrapped() bool { return f.peersEpoch.Load() > 0 }

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

// onDatagram is the transport raw handler: it runs on the socket read loop,
// learns unknown senders from the kernel-reported source, and parks a copy
// of the payload in the inbox for the pump. Buffers recycle through the
// inbox free list, so a warm fabric receives without allocating.
func (f *Fabric) onDatagram(from netem.Addr, src netip.AddrPort, payload []byte) {
	f.node.AddPeerIfAbsent(from, src)
	f.mu.Lock()
	var buf []byte
	if n := len(f.inFree); n > 0 {
		buf = f.inFree[n-1]
		f.inFree[n-1] = nil
		f.inFree = f.inFree[:n-1]
	}
	f.inbox = append(f.inbox, inbound{from: from, buf: append(buf[:0], payload...)})
	f.mu.Unlock()
	f.signal()
}

func (f *Fabric) signal() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
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
	f.mu.Unlock()
	f.cnt.posts.Add(1)
	f.signal()
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

// Start launches the pump (and the egress workers, when sharded): from here
// on the engine advances on wall time.
func (f *Fabric) Start() {
	f.mu.Lock()
	if f.started {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.startWall = time.Now()
	f.mu.Unlock()
	if f.epend != nil {
		for _, w := range f.eworkers {
			f.egWG.Add(1)
			go w.loop()
		}
	}
	go f.loop()
}

// stopEgress runs after the final pump handed every pending record over:
// the workers drain their queues, flush their batches, and exit; the pump
// then releases whatever they finished with. Pump goroutine only.
func (f *Fabric) stopEgress() {
	if f.epend == nil {
		return
	}
	close(f.egStop)
	for _, w := range f.eworkers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
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
		f.mu.Unlock()
		close(f.stop)
		<-f.done
		_ = f.node.Close()
	})
}

// loop is the pump: drain and advance, then sleep exactly until the next
// engine deadline — or indefinitely when nothing is scheduled, since every
// external input (inbound datagrams, posts, egress done lists) signals wake.
// A fabric with an empty queue therefore costs zero wakeups. Rounds the
// deadline started are counted apart (TimerWakes): they are what the node's
// own timers cost, as opposed to the work others sent it.
func (f *Fabric) loop() {
	defer close(f.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		f.pump(false)
		var timerC <-chan time.Time
		if d, ok := f.sleepFor(); ok {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(d)
			timerC = timer.C
		}
		select {
		case <-f.stop:
			f.pump(true) // final drain so Call-ers are never stranded
			f.stopEgress()
			return
		case <-f.wake:
		case <-timerC: // nil (blocks forever) when nothing is scheduled
			f.cnt.timerWakes.Add(1)
		}
	}
}

// sleepFor returns how long the pump may sleep: until the next engine
// deadline. ok is false when there is no deadline to wake for (sleep until
// signaled).
func (f *Fabric) sleepFor() (time.Duration, bool) {
	next, ok := f.eng.NextAt()
	if !ok {
		return 0, false
	}
	return max(time.Until(f.startWall.Add(time.Duration(next))), 0), true
}

// pump runs queued posts, injects inbound messages, advances the engine to
// the current wall-clock time, and flushes any egress batches the round
// opened. final marks the last round: from its queue swap on, posts are
// refused.
func (f *Fabric) pump(final bool) {
	f.mu.Lock()
	f.exited = final
	posts := f.posts
	f.posts = f.postsSpare
	f.postsSpare = nil
	inbox := f.inbox
	f.inbox = f.inboxSpare
	f.inboxSpare = nil
	f.mu.Unlock()
	f.cnt.pumpRounds.Add(1)

	for _, fn := range posts {
		fn()
	}
	if f.epend != nil {
		f.collectEgressDone()
	}
	for i := range inbox {
		f.deliver(inbox[i].from, inbox[i].buf)
	}
	f.eng.RunUntil(sim.Time(time.Since(f.startWall)))
	f.flushEgress()

	// Hand the drained slices back as next round's spares (buffers return
	// to the inbox free list) so steady-state rounds reuse warm storage.
	for i := range posts {
		posts[i] = nil
	}
	f.mu.Lock()
	for i := range inbox {
		f.inFree = append(f.inFree, inbox[i].buf[:0])
		inbox[i] = inbound{}
	}
	f.inboxSpare = inbox[:0]
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
// registry under the given label (e.g. `node=3`). engine_events and
// local_dropped are the engine's and the local network's own counts and
// pump-owned: snapshot the registry under Call.
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
	reg.AddCounterFunc("live.part.dropped", labels, func() uint64 { return f.node.Stats().PartDropped })
	reg.AddCounterFunc("live.fabric.injected", labels, func() uint64 { return f.FStats().Injected })
	reg.AddCounterFunc("live.fabric.system", labels, func() uint64 { return f.FStats().SystemConsumed })
	reg.AddCounterFunc("live.fabric.egress", labels, func() uint64 { return f.FStats().EgressMsgs })
	reg.AddCounterFunc("live.fabric.egressbatches", labels, func() uint64 { return f.FStats().EgressBatches })
	reg.AddCounterFunc("live.fabric.egresserr", labels, func() uint64 { return f.FStats().EgressErrs })
	reg.AddCounterFunc("live.fabric.pktdropped", labels, func() uint64 { return f.FStats().PacketDropped })
	reg.AddCounterFunc("live.fabric.posts_dropped", labels, func() uint64 { return f.FStats().PostsDropped })
	reg.AddCounterFunc("live.fabric.pumps", labels, func() uint64 { return f.FStats().PumpRounds })
	reg.AddCounterFunc("live.fabric.timer_wakes", labels, func() uint64 { return f.FStats().TimerWakes })
	reg.AddCounterFunc("live.fabric.engine_events", labels, func() uint64 { return f.eng.Processed() })
	reg.AddCounterFunc("live.fabric.local_dropped", labels, func() uint64 { return f.nw.Totals().MsgsDropped })
	reg.AddGaugeFunc("live.fabric.peers", labels, func() float64 { return float64(len(f.node.Peers())) })
}
