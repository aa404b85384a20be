// Package sim provides a deterministic discrete-event simulation engine.
//
// All SwiShmem experiments run on virtual time: the engine maintains a
// pending set of timestamped events (queue.go) and a virtual clock that jumps
// from event to event. This makes it possible to model quantities that cannot
// be reproduced in wall-clock time on a development machine (terabit links,
// nanosecond-scale switch pipelines) while keeping every run exactly
// reproducible from a seed.
//
// The engine is intentionally single-threaded: determinism is the point.
// Concurrency in the modeled system (many switches processing packets "at
// the same time") is expressed as interleaved events, with ties broken by a
// monotone sequence number so insertion order is stable.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"swishmem/internal/obs"
)

// Time is a virtual timestamp. It uses the same resolution as time.Duration
// (nanoseconds) so durations compose naturally with the standard library.
type Time int64

// Duration re-exports time.Duration for call-site clarity.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback. Events are pooled: when one is popped or
// cancelled it returns to the engine's free list and is reincarnated by the
// next At/After/Schedule call. gen distinguishes incarnations so a stale
// Timer handle can never cancel a recycled event.
//
// Ordering: events run in (at, khi, klo) order. Locally scheduled events
// carry khi==0 and klo==engine sequence number, preserving the historical
// FIFO tie-break among equal timestamps. Cross-entity events (network
// deliveries, control-plane posts) carry a caller-supplied key whose value
// depends only on the modeled source entity and its own sequence.
type event struct {
	at  Time
	khi uint64 // ordering class+source; 0 for locally scheduled events
	klo uint64 // per-source sequence; engine seq for local events
	fn  func()
	gen uint64 // incremented every time the event returns to the pool
	eng *Engine
	// Where the event sits in the pending set (queue.go): its tier, and its
	// list neighbours in either wheel. They are meaningful only while the
	// event is queued, and are overwritten when it is queued again.
	next, prev *event
	tier       tier
}

// eventLess is the total event order: timestamp, then key class+source,
// then per-source sequence. Keys are unique within an engine, so the order
// is strict and insertion order never matters.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.khi != b.khi {
		return a.khi < b.khi
	}
	return a.klo < b.klo
}

// Event key classes. At equal timestamps the order is: local events
// (khi==0), then network deliveries, then control-plane posts. Within a
// class, sources order by their stable entity id and then their own
// monotone sequence.
const (
	// KeyClassDeliver tags network deliveries: khi = KeyClassDeliver |
	// source-entity bits chosen by the network layer.
	KeyClassDeliver uint64 = 1 << 62
	// KeyClassPost tags Mailbox posts: khi = KeyClassPost | mailbox source id.
	KeyClassPost uint64 = 1 << 63
)

// Timer is a handle to a scheduled event; it can be stopped before firing.
type Timer struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to its original scheduling.
func (t *Timer) live() bool { return t != nil && t.ev != nil && t.ev.gen == t.gen }

// Stop cancels the timer, removing its event from the queue immediately so
// cancelled timers cost nothing until their deadline. It reports whether the
// timer was still pending.
func (t *Timer) Stop() bool {
	if !t.live() {
		return false
	}
	ev := t.ev
	eng := ev.eng
	if tr := eng.tracer; tr.Enabled() {
		rec := tr.Emit(obs.PhaseInstant, int64(eng.now), 0, obs.PidSim, "sim", "timer.cancel")
		rec.K1, rec.V1 = "deadline_ns", int64(ev.at)
	}
	eng.queue.remove(ev)
	eng.release(ev)
	return true
}

// Engine is a discrete-event simulator.
type Engine struct {
	now   Time
	queue pendingSet
	seq   uint64
	rng   *rand.Rand
	seed  int64
	// free is the event pool: steady-state scheduling allocates nothing.
	free []*event
	// Stats
	processed uint64
	// tracer is the observability hook shared by every component that holds
	// an engine reference; nil (the default) means tracing is off and the
	// guards below reduce to one branch.
	tracer *obs.Tracer
}

// NewEngine returns an engine whose random source is seeded with seed.
// The same seed and same schedule of calls yields an identical run.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was constructed with. Model components
// that need their own deterministic random stream (per-link jitter, per-node
// sampling) derive it from this seed plus a stable entity identifier, so the
// stream does not depend on how entities interleave on the shared engine.
func (e *Engine) Seed() int64 { return e.seed }

// Rand returns the engine's deterministic random source. All model
// randomness (loss, jitter, workload sampling) must come from here.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetTracer attaches (or, with nil, detaches) the event tracer. Components
// reach it through Tracer(), so one call instruments the whole cluster.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// Tracer returns the attached tracer, nil when tracing is off. The result
// is safe to use unconditionally with obs.(*Tracer).Enabled.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// schedule pushes a pooled event onto the queue and returns it.
func (e *Engine) schedule(at Time, fn func()) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at, ev.fn, ev.khi, ev.klo = at, fn, 0, e.seq
	e.seq++
	e.queue.push(ev)
	return ev
}

// alloc takes an event from the pool (or allocates one).
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{eng: e}
}

// ScheduleKeyed schedules fn at the absolute time at with an explicit
// ordering key. khi must be non-zero (zero is reserved for local events,
// which sort first among equal timestamps) and (khi, klo) must be unique
// per timestamp — callers keep a monotone klo counter per source entity.
func (e *Engine) ScheduleKeyed(at Time, khi, klo uint64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: keyed scheduling at %v before now %v", at, e.now))
	}
	if khi == 0 {
		panic("sim: ScheduleKeyed requires a non-zero khi (0 is reserved for local events)")
	}
	ev := e.alloc()
	ev.at, ev.fn, ev.khi, ev.klo = at, fn, khi, klo
	e.queue.push(ev)
}

// release returns an event (already removed from the queue) to the pool,
// invalidating any Timer handles that refer to it.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.gen++
	e.free = append(e.free, ev)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: that is always a model bug, never a recoverable condition.
func (e *Engine) At(at Time, fn func()) *Timer {
	ev := e.schedule(at, fn)
	return &Timer{ev: ev, gen: ev.gen}
}

// at is the value-Timer variant of At, for holders that embed the handle.
func (e *Engine) at(at Time, fn func()) Timer {
	ev := e.schedule(at, fn)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time. Negative d panics.
func (e *Engine) After(d Duration, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// AfterVal is After returning a value Timer, for holders that embed the
// handle in a pooled record instead of allocating one per scheduling.
func (e *Engine) AfterVal(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.at(e.now.Add(d), fn)
}

// Schedule is the hot-path variant of At for callers that never cancel: no
// Timer handle is allocated and the event comes from the pool, so
// steady-state scheduling is allocation-free.
func (e *Engine) Schedule(at Time, fn func()) { e.schedule(at, fn) }

// ScheduleAfter is the hot-path variant of After (no Timer handle).
func (e *Engine) ScheduleAfter(d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.schedule(e.now.Add(d), fn)
}

// Every schedules fn to run every period, starting one period from now.
// The returned Timer always refers to the next pending firing; stopping it
// cancels the series.
type Ticker struct {
	eng     *Engine
	period  Duration
	fn      func()
	rearm   func() // bound once; rescheduled every period
	t       Timer
	stopped bool
}

// Every creates a repeating event. period must be positive.
func (e *Engine) Every(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", period))
	}
	tk := &Ticker{eng: e, period: period, fn: fn}
	tk.rearm = func() {
		if tk.stopped {
			return
		}
		tk.fn()
		if !tk.stopped {
			tk.arm()
		}
	}
	tk.arm()
	return tk
}

func (tk *Ticker) arm() {
	tk.t = tk.eng.at(tk.eng.now.Add(tk.period), tk.rearm)
}

// Stop cancels the ticker.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.t.Stop()
}

// runBatch pops and executes the batch of events sharing the earliest queued
// timestamp. The clock store, tracer guard, and processed-counter update are
// hoisted out of the per-event iteration, so a batch of same-timestamp events
// of any kind (a sync round fanning out, a link's arrivals) pays them once.
// The loop stays incremental — pop, run, re-examine the minimum — because a
// callback may schedule new events at the current timestamp (local khi==0
// events sort before queued keyed ones) and eventLess is the only correct
// merge order. The caller has settled the queue against its bound:
// the run's minimum is due. Every event at one timestamp satisfies the same
// bound, so bounds are re-checked only between batches — and every event at
// the minimum's timestamp, queued now or by a callback, is in the run (its
// tick is not past the clock's), so the batch ends at the first different
// minimum without consulting the wheels.
func (e *Engine) runBatch() {
	q := &e.queue
	t := q.run[len(q.run)-1].at
	e.now = t
	tr := e.tracer
	n := uint64(0)
	for {
		ev := q.pop()
		fn := ev.fn
		if tr.Enabled() {
			tr.Emit(obs.PhaseInstant, int64(t), 0, obs.PidSim, "sim", "event")
		}
		// Release before running so fn's own scheduling can reuse the event.
		e.release(ev)
		fn()
		n++
		if len(q.run) == 0 || q.run[len(q.run)-1].at != t {
			break
		}
	}
	e.processed += n
}

// Run processes events until the queue is empty.
// It returns the number of events processed.
func (e *Engine) Run() uint64 {
	start := e.processed
	for e.queue.settle(maxTime) {
		e.runBatch()
	}
	return e.processed - start
}

// RunUntil processes events with timestamps <= deadline, advancing the clock
// to exactly deadline at the end (even if the queue drained early).
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.processed
	for e.queue.settle(deadline) {
		e.runBatch()
	}
	e.advanceTo(deadline)
	return e.processed - start
}

// advanceTo moves the clock forward to t with nothing pending before t.
func (e *Engine) advanceTo(t Time) {
	if e.now < t {
		e.now = t
		e.queue.catchUp(t)
	}
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d Duration) uint64 { return e.RunUntil(e.now.Add(d)) }

// Pending returns the number of scheduled events. Cancelled timers are
// removed immediately, so every queued event counts.
func (e *Engine) Pending() int { return e.queue.n }

// NextAt returns the virtual time of the earliest scheduled event. ok is
// false when the queue is empty. Wall-clock drivers (the live fabric pump)
// use it to sleep exactly until the next timer instead of polling.
func (e *Engine) NextAt() (Time, bool) { return e.queue.nextAt() }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Mailbox issues deterministically keyed control-plane posts for one
// logical source entity (a controller, a switch): a post arrives after a
// fixed delay with the key (KeyClassPost|src, n), so same-instant posts
// order by source and then by issue order.
type Mailbox struct {
	src uint64
	n   uint64
}

// NewMailbox returns a mailbox for the given stable source entity id.
// Ids must be unique across all mailboxes in a simulation.
func NewMailbox(src uint64) *Mailbox { return &Mailbox{src: src} }

// Post schedules fn on e, d after e's current time.
func (m *Mailbox) Post(e *Engine, d Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative post delay %v", d))
	}
	e.ScheduleKeyed(e.now.Add(d), KeyClassPost|m.src, m.n, fn)
	m.n++
}
