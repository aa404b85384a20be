// Parallel (sharded) execution. A Group owns K engines, one per shard, and
// advances them together in conservative time windows (YAWNS/CMB-style):
//
//	T = min over shards of next event time
//	W = min(T + lookahead, deadline+1)        // exclusive window end
//
// Every cross-shard interaction is delayed by at least the lookahead (the
// minimum cross-shard link latency, and the control-plane post delay), so an
// event executed at t < W can only produce cross-shard events at or after
// t + lookahead >= T + lookahead >= W. Shards are therefore causally
// independent inside a window and drain their local queues in parallel.
// Cross-shard messages accumulate in per-shard outboxes (appended lock-free
// by the owning shard's goroutine) and are merged at the barrier by the
// single-threaded coordinator.
//
// Determinism: the merge needs no coordination order because every event
// carries a (khi, klo) key derived from its modeled source entity (directed
// link, posting mailbox) — see event ordering in sim.go. The destination
// queue's comparator IS the merge order, and it is the same order a single
// sequential engine would have used, so parallel runs are byte-identical to
// sequential runs.
package sim

import (
	"fmt"
	"math"
	"sync"
)

// Event key classes. At equal timestamps the order is: local events
// (khi==0), then network deliveries, then control-plane posts. Within a
// class, sources order by their stable entity id and then their own
// monotone sequence — nothing in the key depends on shard layout.
const (
	// KeyClassDeliver tags network deliveries: khi = KeyClassDeliver |
	// source-entity bits chosen by the network layer.
	KeyClassDeliver uint64 = 1 << 62
	// KeyClassPost tags Mailbox posts: khi = KeyClassPost | mailbox source id.
	KeyClassPost uint64 = 1 << 63
)

// Group runs K shard engines under a conservative window barrier.
type Group struct {
	engines   []*Engine
	lookahead Duration
	// flush hooks run at every barrier with all shards quiescent; the
	// network layer registers its outbox drain here.
	flush []func()
	work  []chan Time
	wg    sync.WaitGroup
	// active is scratch for the shard indices runnable in this window.
	active []int
	once   sync.Once
	// windows/wakes count barrier iterations and shard wakeups, for the
	// speedup tables (coordination overhead = wakes/windows).
	windows uint64
	wakes   uint64
}

// NewGroup creates shards engines seeded identically with seed (so
// per-entity random streams derived from Engine.Seed match a sequential
// engine built from the same seed) and starts one worker goroutine per
// shard. Call Close to stop the workers.
func NewGroup(seed int64, shards int) *Group {
	if shards < 1 {
		panic(fmt.Sprintf("sim: NewGroup with %d shards", shards))
	}
	g := &Group{}
	for i := 0; i < shards; i++ {
		e := NewEngine(seed)
		e.group = g
		e.shard = i
		g.engines = append(g.engines, e)
	}
	g.work = make([]chan Time, shards)
	for i := range g.work {
		ch := make(chan Time, 1)
		g.work[i] = ch
		go func(e *Engine, ch chan Time) {
			for w := range ch {
				e.runWindow(w)
				g.wg.Done()
			}
		}(g.engines[i], ch)
	}
	return g
}

// Engines returns the shard engines in shard order.
func (g *Group) Engines() []*Engine { return g.engines }

// Shards returns the number of shards.
func (g *Group) Shards() int { return len(g.engines) }

// Now returns the group virtual time (all shards agree between runs).
func (g *Group) Now() Time { return g.engines[0].now }

// Windows returns the number of barrier windows executed so far.
func (g *Group) Windows() uint64 { return g.windows }

// Wakes returns the total number of shard window executions so far.
func (g *Group) Wakes() uint64 { return g.wakes }

// Lookahead returns the current conservative window width.
func (g *Group) Lookahead() Duration { return g.lookahead }

// SetLookahead sets the window width. It must be positive and no larger
// than the minimum cross-shard interaction delay (link latency or post
// delay); the model layer recomputes it whenever link profiles change.
// Shrinking mid-run is always safe (windows only get more conservative
// than the messages already in flight).
func (g *Group) SetLookahead(d Duration) {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", d))
	}
	g.lookahead = d
}

// AddFlush registers a barrier hook, run with every shard quiescent.
func (g *Group) AddFlush(f func()) { g.flush = append(g.flush, f) }

// barrier drains mailbox outboxes and runs the registered flush hooks.
// Called only with all shards quiescent (coordinator context).
func (g *Group) barrier() {
	for _, f := range g.flush {
		f()
	}
	for _, e := range g.engines {
		for i := range e.posts {
			p := &e.posts[i]
			p.to.ScheduleKeyed(p.at, p.khi, p.klo, p.fn)
			*p = post{}
		}
		e.posts = e.posts[:0]
	}
}

// minNext returns the earliest queued event time across shards, or
// math.MaxInt64 when every queue is empty.
func (g *Group) minNext() Time {
	t := Time(math.MaxInt64)
	for _, e := range g.engines {
		if at, ok := e.queue.nextAt(); ok && at < t {
			t = at
		}
	}
	return t
}

// window runs every shard with work before w up to (excluding) w. A single
// runnable shard runs inline on the coordinator; otherwise the worker
// goroutines are woken and joined.
func (g *Group) window(w Time) {
	g.active = g.active[:0]
	for i, e := range g.engines {
		if at, ok := e.queue.nextAt(); ok && at < w {
			g.active = append(g.active, i)
		}
	}
	g.windows++
	g.wakes += uint64(len(g.active))
	if len(g.active) == 1 {
		g.engines[g.active[0]].runWindow(w)
		return
	}
	g.wg.Add(len(g.active))
	for _, i := range g.active {
		g.work[i] <- w
	}
	g.wg.Wait()
}

// RunUntil advances every shard to exactly deadline, processing all events
// with timestamps <= deadline in conservative parallel windows.
func (g *Group) RunUntil(deadline Time) {
	for {
		g.barrier()
		t := g.minNext()
		if t > deadline {
			break
		}
		if g.lookahead <= 0 {
			panic("sim: Group.RunUntil without a positive lookahead")
		}
		w := deadline + 1 // exclusive bound: deadline events are due
		if wa := t.Add(g.lookahead); wa < w {
			w = wa
		}
		g.window(w)
	}
	g.barrier()
	for _, e := range g.engines {
		e.advanceTo(deadline)
	}
}

// RunFor advances the group by d of virtual time.
func (g *Group) RunFor(d Duration) { g.RunUntil(g.Now().Add(d)) }

// Run drains every shard to quiescence (the Group analogue of Engine.Run).
// Like the sequential version it does not terminate while repeating timers
// rearm themselves. All shard clocks end on the time of the globally last
// event, matching what a single sequential engine would report.
func (g *Group) Run() {
	if g.lookahead <= 0 {
		panic("sim: Group.Run without a positive lookahead")
	}
	for {
		g.barrier()
		t := g.minNext()
		if t == Time(math.MaxInt64) {
			break
		}
		g.window(t.Add(g.lookahead))
	}
	var last Time
	for _, e := range g.engines {
		if e.now > last {
			last = e.now
		}
	}
	for _, e := range g.engines {
		e.advanceTo(last)
	}
}

// Processed returns the total number of events executed across all shards.
func (g *Group) Processed() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.processed
	}
	return n
}

// Pending returns the total number of queued events across all shards plus
// undelivered cross-shard posts.
func (g *Group) Pending() int {
	n := 0
	for _, e := range g.engines {
		n += e.queue.n + len(e.posts)
	}
	return n
}

// Close stops the worker goroutines. The engines remain usable (any later
// RunUntil would deadlock only in the multi-active path, so Close must be
// the last group operation). Idempotent.
func (g *Group) Close() {
	g.once.Do(func() {
		for _, ch := range g.work {
			close(ch)
		}
	})
}

// runWindow drains this shard's local queue up to (excluding) end. It is
// the per-shard hot loop: identical to the sequential drain except for the
// window bound, and allocation-free (pooled events, no channel traffic).
// Same-timestamp runs go through runBatch, so the batching amortizations
// apply per shard too.
func (e *Engine) runWindow(end Time) {
	for e.queue.settle(end - 1) {
		e.runBatch()
	}
}

// post is a deferred cross-shard Mailbox delivery.
type post struct {
	at       Time
	khi, klo uint64
	fn       func()
	to       *Engine
}

// Mailbox issues deterministically keyed control-plane posts for one
// logical source entity (a controller, a chain node). Posts arrive on the
// destination engine after a fixed delay; in a Group the delay must be at
// least the lookahead, which makes posts safe to exchange at barriers. The
// (source id, counter) key means arrival order among same-timestamp posts
// never depends on shard layout — a sequential engine orders them the same
// way.
//
// A Mailbox is owned by its source entity and must only be used from that
// entity's executing shard (or from driver code between runs).
type Mailbox struct {
	src uint64
	n   uint64
}

// NewMailbox returns a mailbox for the given stable source entity id.
// Ids must be unique across all mailboxes in a simulation.
func NewMailbox(src uint64) *Mailbox { return &Mailbox{src: src} }

// Post schedules fn on engine to, d after from's current time. from must be
// the engine of the executing (or driving) context, so reading its clock
// and appending to its outbox is race-free.
func (m *Mailbox) Post(from, to *Engine, d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative post delay %v", d))
	}
	at := from.now.Add(d)
	khi := KeyClassPost | m.src
	klo := m.n
	m.n++
	if from == to {
		to.ScheduleKeyed(at, khi, klo, fn)
		return
	}
	g := from.group
	if g == nil || to.group != g {
		panic("sim: cross-engine post between engines not in the same group")
	}
	if d < g.lookahead {
		panic(fmt.Sprintf("sim: post delay %v below group lookahead %v", d, g.lookahead))
	}
	from.posts = append(from.posts, post{at: at, khi: khi, klo: klo, fn: fn, to: to})
}
