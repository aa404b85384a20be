package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"time"

	"swishmem/internal/controller"
	"swishmem/internal/ewo"
	"swishmem/internal/livecluster"
	"swishmem/internal/netem"
	"swishmem/internal/netem/live"
)

// cluster is three livecluster members plus a live controller on loopback
// UDP, with no injected faults.
type cluster struct {
	ctrl      *live.Fabric
	ctl       *controller.Live
	members   []*livecluster.Member
	bootstrap time.Duration // members started -> all configured
}

// stallBudget is how long a pump may go unscheduled before the system takes
// it for a fault. No fault is injected here, but on a shared host both vCPUs
// can be gone for a few hundred ms, and a live pump that wakes from a stall
// runs every timer that fell due before it reads its socket: at the defaults
// (writer retry 2 ms x 100, detector 20 ms x 10) a stall over 200 ms fails
// every write in flight although its ack is waiting in the queue, and shrinks
// the chain for good (there is no live re-join). Both timers are set from
// this budget instead, so a host stall costs latency, not failed ops. With no
// datagram lost, neither timer fires in a run.
const (
	stallBudget  = 5 * time.Second
	detectorBeat = stallBudget / 10  // the detector gives up after ten beats
	retryTimeout = stallBudget / 100 // the writer gives up after chain's 100 retries
	drainTimeout = 2 * stallBudget   // outlasts the wait for a lost read
)

// newCluster builds and bootstraps the cluster; retry is the chain writer's
// retransmission timeout (0: the member default, 2 ms).
func newCluster(seed int64, retry time.Duration) (*cluster, error) {
	addrs := make([]netem.Addr, members)
	for i := range addrs {
		addrs[i] = netem.Addr(i + 1)
	}
	ctrl, ctl, err := livecluster.NewLiveController(seed, "", addrs, detectorBeat, 0)
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	ctrl.Start()
	c := &cluster{ctrl: ctrl, ctl: ctl}
	started := time.Now()
	for i := range addrs {
		m, err := livecluster.NewMember(livecluster.MemberConfig{
			Addr: addrs[i], Seed: seed + int64(i)*7919, ControllerEP: ctrl.AddrPort(),
			RetryTimeout: retry})
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("member %d: %w", i, err)
		}
		c.members = append(c.members, m)
		m.Start()
	}
	// Every member must hold a chain config and the full group before ops.
	deadline := started.Add(30 * time.Second)
	for {
		ready := 0
		for _, m := range c.members {
			var ok bool
			m.Fabric.Call(func() {
				ok = m.Strong.Node().Chain().Epoch >= 1 && len(m.Counter.Node().Group()) == members
			})
			if ok {
				ready++
			}
		}
		if ready == members {
			break
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("bootstrap timeout: %d/%d members configured", ready, members)
		}
		time.Sleep(time.Millisecond)
	}
	c.bootstrap = time.Since(started)
	return c, nil
}

func (c *cluster) stop() {
	for _, m := range c.members {
		m.Stop()
	}
	c.ctrl.Stop()
}

// Counter indexes of a cluster-wide snapshot.
const (
	cDatagramsSent = iota
	cDatagramsRecv
	cBytesSent
	cEgressMsgs
	cEgressErrs
	cDecodeErr
	cPumpRounds
	cWritesSubmitted
	cWritesCommitted
	cWritesFailed
	cRetries
	cReadsLocal
	cReadsForwarded
	cEWOWrites
	cUpdatesSent
	cUpdatesRecv
	cSyncPackets
	cEntriesMerged
	cEntriesStale
	cSyncBytes
	cCount
)

type counters [cCount]uint64

func (a counters) sub(b counters) counters {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// counters sums the public stats of every fabric and protocol node.
// Protocol counters are pump-owned, so each member is read under its Call.
func (c *cluster) counters() counters {
	var t counters
	fabric := func(f *live.Fabric) {
		ns, fs := f.Node().Stats(), f.FStats()
		t[cDatagramsSent] += ns.Sent
		t[cDatagramsRecv] += ns.Received
		t[cBytesSent] += ns.BytesSent
		t[cEgressMsgs] += fs.EgressMsgs
		t[cEgressErrs] += fs.EgressErrs
		t[cDecodeErr] += fs.DecodeErr + ns.DecodeErr
		t[cPumpRounds] += fs.PumpRounds
	}
	fabric(c.ctrl)
	for _, m := range c.members {
		fabric(m.Fabric)
		m.Fabric.Call(func() {
			cs := m.Strong.Node().Counters()
			t[cWritesSubmitted] += cs.WritesSubmitted.Value()
			t[cWritesCommitted] += cs.WritesCommitted.Value()
			t[cWritesFailed] += cs.WritesFailed.Value()
			t[cRetries] += cs.Retries.Value()
			t[cReadsLocal] += cs.ReadsLocal.Value()
			t[cReadsForwarded] += cs.ReadsForwarded.Value()
			for _, es := range []*ewo.Stats{&m.Counter.Node().Stats, &m.LWW.Node().Stats} {
				t[cEWOWrites] += es.Writes.Value()
				t[cUpdatesSent] += es.UpdatesSent.Value()
				t[cUpdatesRecv] += es.UpdatesRecv.Value()
				t[cSyncPackets] += es.SyncPackets.Value()
				t[cEntriesMerged] += es.EntriesMerged.Value()
				t[cEntriesStale] += es.EntriesStale.Value()
				t[cSyncBytes] += es.SyncBytes.Value()
			}
		})
	}
	return t
}

// slot is one in-flight op of the closed loop: a waiting caller. Its
// closures are bound once and its value buffer is reused, so issuing an op
// allocates nothing.
type slot struct {
	l      *loop
	m      *livecluster.Member
	op     op
	first  int  // index of the burst's first op (opAdds)
	traced bool // stamp the stage boundaries too
	ok     bool
	// retired: a read given up on after lostAfter and replaced (asked again,
	// or counted as failed); a completion that still arrives is accounted
	// but the slot is never reused.
	retired bool
	asks    int    // times the read was asked again
	busy    bool   // in flight (generator's view)
	tag     uint64 // the write's place in issue order, also in its value
	buf     [8]byte

	// Run-clock timestamps (ns): issue and done always; the rest when traced.
	tIssue, tPosted, tStart, tSubmitted, tDone int64
	tAsked                                     int64 // tIssue, or when the read was last asked again

	run   func()
	wdone func(bool)
	rdone func([]byte, bool)
}

// loop is the closed-loop generator: one goroutine, `window` slots, the next
// op issued only when a slot's previous op completed. The window is the
// writer's packet buffer of §6.1 — every in-flight op is a caller waiting
// for its state access.
type loop struct {
	c      *cluster
	ops    []op
	burst  int // ops per slot: 1, or ewoBurst for opAdds
	window int
	done   chan *slot // completed slots; nil = time to look for lost ops
	free   []*slot
	slots  []*slot // every slot in use, free or in flight
	scan   *time.Timer
	base   time.Time // origin of the run clock; moved past every yardstick pause

	cursor      int
	seq         uint64 // tag of the latest write issued
	outstanding int
	last        int64 // completion time of the latest op (run clock)
	traced      bool
	rec         *recorder // nil while warming up

	issued, completed uint64
	failed, lost      uint64                          // failed includes lost: ops that never completed
	reasked           uint64                          // reads asked again after lostAfter without an answer
	expect            [livecluster.CounterKeys]uint64 // counter adds the completed ops made
	// committed[k]: key k holds a committed write the oracle can check. A
	// failed write may have reached some replicas and not others, so it
	// leaves its key unknown (unknownAt = the tag counter when it failed)
	// until a write issued after that commits.
	committed [livecluster.StrongCapacity]bool
	unknownAt [livecluster.StrongCapacity]uint64
}

// A forwarded read is the one op with no retry inside the system: if its
// ReadFwd or ReadReply datagram is dropped, the callback never runs. The
// closed loops drop no datagram themselves, but a pump that wakes from a host
// stall runs every sync round that fell due at once, and that burst can
// overrun a peer's socket queue. So the waiting caller does what a caller
// would: every scanEvery the loop looks for reads with no answer for
// lostAfter and asks again, the op's clock running on from its first issue
// (a read that was only late answers twice; both adds are expected). A read
// asked readAsks times in vain counts as a failed op at its elapsed time and
// the next op takes its place. (A write retries inside the system and then
// calls back false, which counts as failed as well; the EWO ops complete in
// the call.)
const readAsks = 5

// Variables so the test need not wait that long.
var (
	lostAfter = stallBudget / readAsks
	scanEvery = lostAfter / 4
)

func newLoop(c *cluster, ops []op, window, burst int) *loop {
	// Room for every slot, the scan tick, and late completions of retired
	// slots, so a pump never blocks handing a slot back.
	l := &loop{c: c, ops: ops, burst: burst, window: window,
		done: make(chan *slot, 2*window+8), base: time.Now()}
	for i := 0; i < window; i++ {
		s := l.newSlot()
		l.slots = append(l.slots, s)
		l.free = append(l.free, s)
	}
	l.scan = time.AfterFunc(scanEvery, l.tick)
	return l
}

func (l *loop) newSlot() *slot {
	s := &slot{l: l}
	s.run, s.wdone, s.rdone = s.exec, s.finish, s.readDone
	return s
}

func (l *loop) tick() { l.done <- nil }

// reap looks for the reads that have not called back. The old slot is
// retired, not reused — its completion may still arrive — and a fresh one
// takes its place: with the same read, or free for the next op once the read
// has been asked readAsks times.
func (l *loop) reap() {
	now := l.now()
	for i, s := range l.slots {
		if !s.busy || s.op.kind != opRead || now-s.tAsked < int64(lostAfter) {
			continue
		}
		// Its pump may still write the slot's completion fields: leave them.
		s.retired, s.busy = true, false
		ns := l.newSlot()
		l.slots[i] = ns
		if s.asks+1 < readAsks {
			l.reasked++
			ns.op, ns.m, ns.traced = s.op, s.m, s.traced
			ns.tIssue, ns.tPosted, ns.tAsked, ns.asks = s.tIssue, s.tPosted, now, s.asks+1
			ns.busy = true
			ns.m.Fabric.Post(ns.run)
			continue
		}
		l.lost++
		l.account(s, false, now)
		l.free = append(l.free, ns)
	}
	l.scan.Reset(scanEvery)
}

func (l *loop) now() int64 { return int64(time.Since(l.base)) }

// exec runs on the target member's pump goroutine. A read of a clean key and
// the EWO ops complete inside the call, handing the slot straight back to
// the generator: nothing may touch the slot after that.
func (s *slot) exec() {
	traced := s.traced
	if traced {
		s.tStart = s.l.now()
	}
	m := s.m
	switch s.op.kind {
	case opWrite:
		// Never completes inside the call: Write only queues the submit on
		// the switch's control plane.
		m.Strong.Write(uint64(s.op.key), s.buf[:], s.wdone)
		if traced {
			s.tSubmitted = s.l.now()
		}
	case opRead:
		m.Strong.Read(uint64(s.op.key), s.rdone)
	case opLWW:
		m.LWW.Write(uint64(s.op.key), s.buf[:])
		s.finish(true)
	case opAdds:
		ops := s.l.ops[s.first : s.first+s.l.burst]
		for i := range ops {
			m.Counter.Add(uint64(ops[i].ckey), uint64(ops[i].delta))
		}
		s.finish(true)
	default: // opNop
		s.finish(true)
	}
}

// readDone completes a data-packet op: the flow's state was read (locally,
// or at the tail when the key is pending), now count the packet.
func (s *slot) readDone([]byte, bool) {
	s.m.Counter.Add(uint64(s.op.ckey), uint64(s.op.delta))
	s.finish(true)
}

// finish runs on the pump that completed the op and hands the slot back.
func (s *slot) finish(ok bool) {
	s.ok = ok
	s.tDone = s.l.now()
	s.l.done <- s
}

func (l *loop) issue(s *slot) {
	o := l.ops[l.cursor]
	s.first = l.cursor
	if l.cursor += l.burst; l.cursor+l.burst > len(l.ops) {
		l.cursor = 0
	}
	s.op, s.m, s.traced = o, l.c.members[o.member], l.traced
	switch o.kind {
	case opWrite, opLWW:
		// Tag the value with its key so the oracle can tell a value this
		// run wrote to this key from anything else.
		l.seq++
		s.tag = l.seq
		binary.BigEndian.PutUint64(s.buf[:], uint64(o.key)<<40|l.seq&(1<<40-1))
	}
	l.issued += uint64(l.burst)
	l.outstanding++
	s.busy, s.asks, s.tIssue = true, 0, l.now()
	s.tAsked = s.tIssue
	s.m.Fabric.Post(s.run)
	if s.traced {
		s.tPosted = l.now()
	}
}

// complete takes one slot handed back by a pump and reports whether the slot
// may be reused.
func (l *loop) complete(s *slot) bool {
	// The counter adds of this op have run: the oracle expects them. That
	// holds for a retired slot's late completion too.
	switch s.op.kind {
	case opRead:
		l.expect[s.op.ckey] += uint64(s.op.delta)
	case opAdds:
		for _, b := range l.ops[s.first : s.first+l.burst] {
			l.expect[b.ckey] += uint64(b.delta)
		}
	}
	if s.retired {
		return false // already counted as failed
	}
	s.busy = false
	l.account(s, s.ok, s.tDone)
	return true
}

// account counts an op that finished at done: completed, failed unless ok,
// and recorded at issue -> done either way.
func (l *loop) account(s *slot, ok bool, done int64) {
	l.outstanding--
	n := uint64(l.burst)
	l.completed += n
	l.last = done
	switch {
	case !ok:
		l.failed += n
		if s.op.kind == opWrite {
			l.committed[s.op.key], l.unknownAt[s.op.key] = false, l.seq
		}
	case s.op.kind == opWrite && s.tag > l.unknownAt[s.op.key]:
		l.committed[s.op.key] = true
	}
	if l.rec != nil {
		l.rec.record(l, s, n, ok, done)
	}
}

// handle takes one event off the done channel: a finished slot, or the scan
// tick (nil).
func (l *loop) handle(s *slot) {
	if s == nil {
		l.reap()
	} else if l.complete(s) {
		l.free = append(l.free, s)
	}
}

// runUntil keeps the window full until cond holds; ops stay in flight.
func (l *loop) runUntil(cond func() bool) {
	for {
		for l.outstanding < l.window && len(l.free) > 0 {
			s := l.free[len(l.free)-1]
			l.free = l.free[:len(l.free)-1]
			l.issue(s)
		}
		if cond() {
			return
		}
		l.handle(<-l.done)
	}
}

// drain waits for every in-flight op; whatever still has not completed after
// the timeout counts as failed.
func (l *loop) drain(timeout time.Duration) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	for l.outstanding > 0 {
		select {
		case s := <-l.done:
			l.handle(s)
		case <-t.C:
			for _, s := range l.slots {
				if s.busy {
					s.retired, s.busy = true, false
				}
			}
			n := uint64(l.outstanding * l.burst)
			l.lost += n
			l.failed += n
			l.outstanding = 0
			return
		}
	}
}

// settle accounts the late completions of retired slots, if any arrived.
func (l *loop) settle() {
	for {
		select {
		case s := <-l.done:
			if s != nil {
				l.complete(s)
			}
		default:
			return
		}
	}
}

// warm runs a fixed number of ops without recording them.
func (l *loop) warm(n uint64) {
	target := l.completed + n
	l.runUntil(func() bool { return l.completed >= target })
}

// recorder holds what one measured phase records.
type recorder struct {
	ws    *windows
	spans *spanLog // non-nil in the traced phase

	postWait, submit, addCall, commitWait, doneWait, writeLat, readLat hist
}

func (r *recorder) record(l *loop, s *slot, n uint64, ok bool, done int64) {
	r.ws.add(done, done-s.tIssue, n, 0)
	if !s.traced || !ok {
		return // a failed op has no stages worth a span
	}
	now := l.now()
	// Only a write has a stage between the call and its completion; every
	// other op's call runs from start to done.
	start, submitted := s.tStart, s.tDone
	if s.op.kind == opWrite {
		submitted = s.tSubmitted
	}
	r.postWait.add(start-s.tIssue, 1)
	r.doneWait.add(now-s.tDone, 1)
	call, cat := "ewo.add", "ewo"
	switch s.op.kind {
	case opAdds:
		r.addCall.add((submitted-start)/int64(n), n)
	case opWrite:
		call, cat = "chain.submit", "chain"
		r.submit.add(submitted-start, 1)
		r.commitWait.add(s.tDone-submitted, 1)
		r.writeLat.add(s.tDone-s.tIssue, n)
	case opRead:
		call, cat = "chain.read", "chain"
		r.readLat.add(s.tDone-s.tIssue, n)
	}
	if !r.spans.sample() {
		return
	}
	id, lane := r.spans.nextOp(), int32(s.op.member)+1
	r.spans.add("op", "gen", id, 0, s.tIssue, now-s.tIssue, "")
	r.spans.add("gen.post", "gen", id, 0, s.tIssue, s.tPosted-s.tIssue, "op")
	r.spans.add("live.post_wait", "live", id, lane, s.tIssue, start-s.tIssue, "op")
	r.spans.add(call, cat, id, lane, start, submitted-start, "op")
	if s.tDone > submitted {
		r.spans.add("chain.commit_wait", "chain", id, lane, submitted, s.tDone-submitted, "op")
	}
	r.spans.add("gen.done", "gen", id, 0, s.tDone, now-s.tDone, "op")
}

// phase is one measured stretch of the closed loop.
type phase struct {
	rec     *recorder
	ops     uint64        // completed inside the phase
	wall    time.Duration // phase length
	cpu     time.Duration // process user+sys CPU over the phase
	mem     memStats
	counter counters   // cluster counter deltas (traced phases only)
	yard    *yardstick // the host's price, sampled between windows
}

// measure records the loop for d of workload time, window by window: the
// loop runs for one window and drains, then the yardstick prices the host
// while nothing is in flight. The run clock stands still meanwhile, so the
// windows hold workload time only. With spans, odd windows run traced (stage
// stamps, sampled spans) and even ones untraced, and the cluster counters
// are read around the phase.
func (l *loop) measure(d time.Duration, spans *spanLog) *phase {
	nwin := max(int(d/time.Second), 2)
	p := &phase{rec: &recorder{spans: spans}, yard: newYardstick()}
	defer p.yard.close()
	var c0 counters
	var m0 memStats
	if spans != nil {
		nwin = max(nwin, 4)
		c0 = l.c.counters()
		m0 = readMem()
	}
	start := l.now()
	width := int64(d) / int64(nwin)
	p.rec.ws = newWindows(start, width, nwin)
	l.rec = p.rec
	ops0 := l.completed
	for w := 0; w < nwin; w++ {
		l.traced = spans != nil && tracedWindow(w)
		end := start + int64(w+1)*width
		cpu0 := cpuTime()
		l.runUntil(func() bool { return l.last >= end })
		l.drain(drainTimeout)
		p.cpu += cpuTime() - cpu0
		t0 := time.Now()
		p.yard.sample()
		l.base = l.base.Add(time.Since(t0))
	}
	p.ops = l.completed - ops0
	p.wall = time.Duration(l.now() - start)
	l.rec, l.traced = nil, false
	if spans != nil {
		p.mem = readMem().since(m0)
		p.counter = l.c.counters().sub(c0)
	}
	return p
}

// verify runs the output-correctness oracles after the loop has drained and
// returns how long the counters took to converge.
func (l *loop) verify(r *result) (converge time.Duration) {
	c := l.c
	// EWO: every member's sums equal the generator's totals, and the LWW
	// replicas agree, once sync has caught up.
	start := time.Now()
	for {
		l.settle()
		sumsOK, lwwOK := true, true
		var ref map[uint64]string
		for i, m := range c.members {
			var sums [livecluster.CounterKeys]uint64
			var dig map[uint64]string
			m.Fabric.Call(func() {
				for k := range sums {
					sums[k] = m.Counter.Sum(uint64(k))
				}
				dig = m.LWW.Node().StateDigest()
			})
			sumsOK = sumsOK && sums == l.expect
			if i == 0 {
				ref = dig
			} else if !maps.Equal(ref, dig) {
				lwwOK = false
			}
		}
		converge = time.Since(start)
		if sumsOK && lwwOK {
			break
		}
		if converge > 10*time.Second {
			r.failAll("EWO state did not converge to the generator's totals in %v (sums ok=%v, lww ok=%v)",
				converge, sumsOK, lwwOK)
			break
		}
		time.Sleep(time.Millisecond)
	}

	// SRO: every key whose latest writes committed is readable on all three
	// replicas, holds a value this run wrote to that key, and the replicas
	// agree.
	var vals [members][livecluster.StrongCapacity][]byte
	for i, m := range c.members {
		m.Fabric.Call(func() {
			for k, ok := range l.committed {
				if !ok {
					continue
				}
				if v, found := m.Strong.Node().Get(uint64(k)); found {
					vals[i][k] = append([]byte(nil), v...)
				}
			}
		})
	}
	bad := 0
	for k, ok := range l.committed {
		if !ok {
			continue
		}
		v := vals[0][k]
		good := len(v) == 8 && binary.BigEndian.Uint64(v)>>40 == uint64(k)
		for i := 1; i < members; i++ {
			good = good && bytes.Equal(v, vals[i][k])
		}
		if !good {
			bad++
		}
	}
	if bad > 0 {
		r.failAll("%d committed keys missing, foreign or divergent across replicas", bad)
	}
	t := c.counters()
	if t[cEgressErrs] != 0 || t[cDecodeErr] != 0 {
		r.failAll("transport errors: %d egress, %d decode", t[cEgressErrs], t[cDecodeErr])
	}
	var alive int
	c.ctrl.Call(func() { alive = len(c.ctl.AliveMembers()) })
	if alive != members {
		r.failAll("the controller evicted members: %d of %d alive", alive, members)
	}
	return converge
}
