package ewo

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/timesync"
	"swishmem/internal/wire"
)

// mkIsolated builds a node with no network activity, for direct merge tests.
func mkIsolated(t testing.TB, kind Kind, addr netem.Addr) *Node {
	t.Helper()
	eng := sim.NewEngine(int64(addr))
	nw := netem.New(eng, netem.LinkProfile{})
	sw := pisa.New(eng, nw, pisa.Config{Addr: addr})
	cfg := Config{Reg: 1, Capacity: 4096, ValueWidth: 8, Kind: kind, SyncDisabled: true}
	n, err := NewNode(sw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func digestEqual(a, b map[uint64]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Property: LWW merge is order-insensitive — applying the same entry set in
// any two permutations yields identical state (strong eventual consistency
// of the merge function itself).
func TestLWWMergeOrderInsensitive(t *testing.T) {
	f := func(keys []uint8, times []int16, nodes []uint8, seed int64) bool {
		n := len(keys)
		if len(times) < n {
			n = len(times)
		}
		if len(nodes) < n {
			n = len(nodes)
		}
		if n == 0 {
			return true
		}
		entries := make([]wire.EWOEntry, n)
		for i := 0; i < n; i++ {
			entries[i] = wire.EWOEntry{
				Key:   uint64(keys[i] % 8),
				Stamp: timesync.Stamp{Time: sim.Time(times[i]), Node: timesync.NodeID(nodes[i])},
				Value: []byte{keys[i], nodes[i]},
			}
		}
		a := mkIsolated(t, LWW, 1)
		b := mkIsolated(t, LWW, 2)
		for i := range entries {
			a.merge(&entries[i])
		}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n)
		for _, i := range perm {
			b.merge(&entries[i])
		}
		return digestEqual(a.StateDigest(), b.StateDigest())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: LWW merge is idempotent — applying an entry twice equals once.
func TestLWWMergeIdempotent(t *testing.T) {
	f := func(key uint8, tm int16, node uint8, v uint8) bool {
		e := wire.EWOEntry{
			Key:   uint64(key),
			Stamp: timesync.Stamp{Time: sim.Time(tm), Node: timesync.NodeID(node)},
			Value: []byte{v},
		}
		a := mkIsolated(t, LWW, 1)
		b := mkIsolated(t, LWW, 2)
		a.merge(&e)
		b.merge(&e)
		b.merge(&e)
		return digestEqual(a.StateDigest(), b.StateDigest())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: counter merge is order-insensitive and duplicate-tolerant, and
// the merged sum equals the true total when every slot's final announcement
// is included.
func TestCounterMergeOrderInsensitive(t *testing.T) {
	f := func(incs []uint8, seed int64) bool {
		if len(incs) == 0 {
			return true
		}
		if len(incs) > 64 {
			incs = incs[:64]
		}
		// Simulate 4 writers incrementing; each increment produces a slot
		// announcement with the running slot value.
		slots := map[uint16]uint64{}
		var entries []wire.EWOEntry
		var total uint64
		for i, inc := range incs {
			owner := uint16(i%4 + 1)
			d := uint64(inc%5 + 1)
			slots[owner] += d
			total += d
			entries = append(entries, counterEntry(7, owner, slots[owner], false))
		}
		a := mkIsolated(t, Counter, 1)
		b := mkIsolated(t, Counter, 2)
		for i := range entries {
			a.merge(&entries[i])
		}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(entries))
		for _, i := range perm {
			b.merge(&entries[i])
			// Duplicate some deliveries.
			if rng.Intn(3) == 0 {
				b.merge(&entries[i])
			}
		}
		return a.Sum(7) == total && b.Sum(7) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: counter reads are monotone under any merge sequence.
func TestCounterMergeMonotoneProperty(t *testing.T) {
	f := func(vals []uint16, owners []uint8) bool {
		n := len(vals)
		if len(owners) < n {
			n = len(owners)
		}
		a := mkIsolated(t, Counter, 1)
		var last uint64
		for i := 0; i < n; i++ {
			e := counterEntry(1, uint16(owners[i]%6), uint64(vals[i]), false)
			a.merge(&e)
			cur := a.Sum(1)
			if cur < last {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: full-cluster convergence under random loss, duplication and
// reordering — after quiescence plus sync rounds, all replicas agree.
func TestClusterConvergenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := Config{Reg: 1, Capacity: 512, Kind: Counter, SyncPeriod: 500_000}
		r := newRig(t, seed, 3, cfg, netem.LinkProfile{
			Latency: 10_000, Jitter: 20_000, LossRate: 0.3, DupRate: 0.2, ReorderRate: 0.3})
		rng := r.eng.Rand()
		var total uint64
		for i := 0; i < 300; i++ {
			d := uint64(rng.Intn(9) + 1)
			r.nodes[rng.Intn(3)].Add(uint64(rng.Intn(20)), d)
			total += d
		}
		r.eng.RunFor(500 * 1000 * 1000) // 500ms: many sync rounds
		for i, n := range r.nodes {
			var sum uint64
			for k := uint64(0); k < 20; k++ {
				sum += n.Sum(k)
			}
			if sum != total {
				t.Fatalf("seed %d node %d total %d, want %d", seed, i, sum, total)
			}
		}
	}
}

// --- slot matrix vs nested-map reference model ---

// refCounter is the counter state the way it used to be kept: key -> owner
// -> slot value in nested maps. It is the oracle for the slot matrix; the
// only thing it knows about the matrix is that owners are announced in
// first-touch order.
type refCounter struct {
	pn            bool
	self          uint16
	keys          map[uint64]bool
	inc, dec      map[uint64]map[uint16]uint64
	owners        []uint16
	merged, stale uint64
}

func newRefCounter(pn bool, self uint16) *refCounter {
	return &refCounter{pn: pn, self: self, keys: map[uint64]bool{},
		inc: map[uint64]map[uint16]uint64{}, dec: map[uint64]map[uint16]uint64{}}
}

func (m *refCounter) slots(dec bool, key uint64, owner uint16) map[uint16]uint64 {
	m.keys[key] = true
	if !slices.Contains(m.owners, owner) {
		m.owners = append(m.owners, owner)
	}
	vec := m.inc
	if dec {
		vec = m.dec
	}
	if vec[key] == nil {
		vec[key] = map[uint16]uint64{}
	}
	return vec[key]
}

func (m *refCounter) add(dec bool, key, delta uint64) { m.slots(dec, key, m.self)[m.self] += delta }

func (m *refCounter) merge(dec bool, key uint64, owner uint16, val uint64) {
	if dec && !m.pn {
		m.stale++
		return
	}
	if s := m.slots(dec, key, owner); val > s[owner] {
		s[owner] = val
		m.merged++
	} else {
		m.stale++
	}
}

func (m *refCounter) sum(key uint64) uint64 {
	var total uint64
	for _, v := range m.inc[key] {
		total += v
	}
	for _, v := range m.dec[key] {
		total -= v
	}
	return total
}

// syncEntries is one full sync walk: keys ascending, increments before
// decrements, owners in first-touch order, zero slots skipped.
func (m *refCounter) syncEntries() []wire.EWOEntry {
	keys := make([]uint64, 0, len(m.keys))
	for k := range m.keys {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var out []wire.EWOEntry
	for _, k := range keys {
		for _, dec := range []bool{false, true} {
			vec := m.inc
			if dec {
				vec = m.dec
			}
			for _, o := range m.owners {
				if v := vec[k][o]; v != 0 {
					out = append(out, counterEntry(k, o, v, dec))
				}
			}
		}
	}
	return out
}

// tableProbe is a counter node whose sync packets land in a capture buffer:
// seven sink addresses make up the rest of its replica group (with one sink
// the random target draw would hit the node itself eight times in a row,
// and lose the round, once in 256).
type tableProbe struct {
	eng    *sim.Engine
	n      *Node
	synced [][]wire.EWOEntry // one element per sync packet
}

func newTableProbe(t testing.TB, kind Kind) *tableProbe {
	t.Helper()
	p := &tableProbe{eng: sim.NewEngine(1)}
	nw := netem.New(p.eng, netem.LinkProfile{})
	sw := pisa.New(p.eng, nw, pisa.Config{Addr: 1})
	n, err := NewNode(sw, Config{Reg: 1, Capacity: 64, Kind: kind, SyncDisabled: true, SyncEntriesPerPacket: 16})
	if err != nil {
		t.Fatal(err)
	}
	members := []uint16{1}
	for a := netem.Addr(2); a <= 8; a++ {
		members = append(members, uint16(a))
		nw.Attach(a, func(_ netem.Addr, payload any, _ int) {
			u := payload.(*wire.EWOUpdate)
			if u.Sync {
				p.synced = append(p.synced, slices.Clone(u.Entries))
			}
			u.Release()
		})
	}
	if err := n.SetGroup(wire.GroupConfig{Epoch: 1, Members: members}); err != nil {
		t.Fatal(err)
	}
	p.n = n
	return p
}

// fullWalk abandons whatever is left of the current sync walk, then captures
// one complete walk over the register.
func (p *tableProbe) fullWalk() []wire.EWOEntry {
	p.n.syncCursor = len(p.n.syncKeys)
	p.synced = p.synced[:0]
	for round := 0; round == 0 || p.n.syncCursor < len(p.n.syncKeys); round++ {
		p.n.syncRound()
	}
	p.eng.RunFor(time.Millisecond)
	// Packets to different sinks arrive in link order, not send order; a
	// walk's packets cover ascending key windows, so sorting restores it.
	slices.SortFunc(p.synced, func(a, b []wire.EWOEntry) int { return cmp.Compare(a[0].Key, b[0].Key) })
	return slices.Concat(p.synced...)
}

// checkTable asserts the matrix's own invariants.
func checkTable(t testing.TB, tb *counterTable) {
	t.Helper()
	if got, want := len(tb.cells), len(tb.keys)*tb.vecs*tb.stride; got != want {
		t.Fatalf("cells = %d, want %d rows x %d vecs x stride %d", got, len(tb.keys), tb.vecs, tb.stride)
	}
	if len(tb.owners) > tb.stride {
		t.Fatalf("%d owners in stride %d", len(tb.owners), tb.stride)
	}
	if len(tb.keys)*2 > len(tb.idx) {
		t.Fatalf("key table over half full: %d keys in %d buckets", len(tb.keys), len(tb.idx))
	}
	for r, k := range tb.keys {
		if got := tb.row(k); got != r {
			t.Fatalf("row(%d) = %d, want %d", k, got, r)
		}
	}
}

// runTableProgram interprets prog as a sequence of counter operations and
// applies each to a node and to the reference model, comparing everything a
// caller or a peer can observe. The byte encoding is total (every string is
// a program), so the fuzzer and the random property test share it.
func runTableProgram(t testing.TB, prog []byte) {
	if len(prog) == 0 {
		return
	}
	kind := Counter
	if prog[0]&1 == 1 {
		kind = PNCounter
	}
	p := newTableProbe(t, kind)
	n, m := p.n, newRefCounter(kind == PNCounter, 1)
	next := func() uint64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return uint64(b)
	}
	// Keys below Capacity, far above it, and at the top of the range; 768 of
	// them, so a long program takes the key table through several rehashes.
	key := func() uint64 {
		i := next()<<8 | next()
		switch i %= 768; i % 3 {
		case 0:
			return i / 3
		case 1:
			return 1<<40 + i*7919
		default:
			return ^uint64(0) - i
		}
	}
	// 40 owners: churn far past MaxGroup, so the stride doubles three times.
	owner := func() uint16 {
		if o := next() % 40; o > 0 {
			return uint16(o)
		}
		return 0xfffe
	}
	for prog = prog[1:]; len(prog) > 0; {
		switch op := next(); op % 8 {
		case 0:
			k, d := key(), next()
			n.Add(k, d)
			m.add(false, k, d)
		case 1:
			k, d := key(), next()
			if kind == PNCounter {
				n.Sub(k, d)
				m.add(true, k, d)
			}
		case 2, 3, 4: // merge a newer, an equal, a stale announcement
			k, o, dec := key(), owner(), next()&1 == 1
			cur := m.inc[k][o]
			if dec {
				cur = m.dec[k][o]
			}
			val := cur + 1 + next()
			if op%8 == 3 {
				val = cur
			} else if op%8 == 4 {
				val = cur / 2
			}
			e := counterEntry(k, o, val, dec)
			n.merge(&e)
			m.merge(dec, k, o, val)
		case 5:
			k := key()
			if got, want := n.Sum(k), m.sum(k); got != want {
				t.Fatalf("Sum(%d) = %d, model %d", k, got, want)
			}
		case 6:
			got, want := p.fullWalk(), m.syncEntries()
			if len(got) != len(want) {
				t.Fatalf("sync walk sent %d entries, model %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key || got[i].Stamp != want[i].Stamp || got[i].Value[0] != want[i].Value[0] {
					t.Fatalf("sync entry %d = %+v, model %+v", i, got[i], want[i])
				}
			}
		case 7:
			checkTable(t, &n.ctr)
			if got, want := n.Keys(), len(m.keys); got != want {
				t.Fatalf("Keys() = %d, model %d", got, want)
			}
			d := n.StateDigest()
			if len(d) != len(m.keys) {
				t.Fatalf("digest has %d keys, model %d", len(d), len(m.keys))
			}
			for k := range m.keys {
				if want := fmt.Sprint(m.sum(k)); d[k] != want {
					t.Fatalf("digest[%d] = %q, model %q", k, d[k], want)
				}
			}
		}
	}
	p.eng.RunFor(time.Millisecond)
	if got := n.Stats.EntriesMerged.Value(); got != m.merged {
		t.Fatalf("EntriesMerged = %d, model %d", got, m.merged)
	}
	if got := n.Stats.EntriesStale.Value(); got != m.stale {
		t.Fatalf("EntriesStale = %d, model %d", got, m.stale)
	}
	checkTable(t, &n.ctr)
}

// tablePrograms returns the deterministic random programs the property test
// runs and the fuzzer starts from.
func tablePrograms(count, ops int) [][]byte {
	progs := make([][]byte, count)
	for i := range progs {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		progs[i] = make([]byte, 1+6*ops)
		rng.Read(progs[i])
	}
	return progs
}

// Property: over random programs of Add/Sub/merge/Sum/sync/digest — keys on
// both sides of Capacity, decrement-only keys, 40 slot owners, hundreds of
// keys — the slot matrix is indistinguishable from nested maps.
func TestCounterTableMatchesNestedMaps(t *testing.T) {
	var rehashes, strides int
	for _, prog := range tablePrograms(8, 1000) {
		runTableProgram(t, prog)
	}
	// The programs are meant to cross the growth paths; make sure they do.
	p := newTableProbe(t, PNCounter)
	for i := uint64(0); i < 700; i++ {
		e := counterEntry(i*i, uint16(i%40+1), i+1, i%2 == 1)
		before, stride := len(p.n.ctr.idx), p.n.ctr.stride
		p.n.merge(&e)
		if len(p.n.ctr.idx) != before {
			rehashes++
		}
		if p.n.ctr.stride != stride {
			strides++
		}
	}
	checkTable(t, &p.n.ctr)
	if rehashes < 4 || strides < 3 {
		t.Fatalf("700 keys x 40 owners: %d rehashes, %d stride doublings", rehashes, strides)
	}
}

// FuzzCounterTable feeds arbitrary programs to the same differential check.
func FuzzCounterTable(f *testing.F) {
	for _, prog := range tablePrograms(4, 200) {
		f.Add(prog)
	}
	f.Add([]byte{1, 1, 0, 0, 0, 4, 0, 0, 9, 1, 6, 7}) // Sub(0, 0) then a stale dec merge, sync, digest
	f.Fuzz(func(t *testing.T, prog []byte) { runTableProgram(t, prog) })
}

// --- update coalescing vs one update per write ---

// coalesceProgram is a decoded coalescing program: a register shape and a
// list of instants, each a burst of writes issued at one virtual time.
type coalesceProgram struct {
	cfg      Config
	members  int
	instants [][]coalesceOp
}

type coalesceOp struct {
	member int
	key    uint64
	dec    bool   // Sub (PNCounter only)
	delta  uint64 // counters
	val    []byte // LWW
}

// decodeCoalesceProgram reads prog as a coalescing program. The encoding is
// total, so the fuzzer and the property test share it: byte 0 picks the kind,
// 3–5 members, 4 or 400 keys and a small per-packet bound (8 entries, or 160
// bytes — well under a burst, so updates close early); then instants follow,
// each a count byte (1–200 ops) and three bytes per op.
func decodeCoalesceProgram(prog []byte) coalesceProgram {
	b := int(prog[0])
	p := coalesceProgram{
		cfg:     Config{Reg: 1, Capacity: 512, ValueWidth: 8, Kind: Kind(b % 3), SyncPeriod: 100 * time.Microsecond},
		members: 3 + b/3%3,
	}
	keys := uint64(4)
	if b/9%2 == 1 {
		keys = 400
	}
	if b/18%2 == 1 {
		p.cfg.SyncPacketBytes = 160
	} else {
		p.cfg.SyncEntriesPerPacket = 8
	}
	for prog = prog[1:]; len(prog) > 0; {
		count := 1 + int(prog[0])%200
		prog = prog[1:]
		var ops []coalesceOp
		for ; count > 0 && len(prog) >= 3; count, prog = count-1, prog[3:] {
			sel, v := int(prog[0]), prog[2]
			rest := sel / p.members
			ops = append(ops, coalesceOp{
				member: sel % p.members,
				key:    (uint64(rest>>1)<<8 | uint64(prog[1])) % keys,
				dec:    p.cfg.Kind == PNCounter && rest&1 == 1,
				delta:  1 + uint64(v%16),
				val:    bytes.Repeat([]byte{v}, int(v%9)),
			})
		}
		if len(ops) > 0 {
			p.instants = append(p.instants, ops)
		}
	}
	return p
}

// expectedUpdates is the reference for what each member multicasts when the
// program runs as issued: per instant one update per member that wrote, its
// entries in first-write order, a slot written again overwritten in place
// with its latest value, and the update closed early only where one more
// entry would pass the per-packet bound.
func (p coalesceProgram) expectedUpdates() [][][]wire.EWOEntry {
	out := make([][][]wire.EWOEntry, p.members)
	type slotID struct {
		key uint64
		dec bool
	}
	slots := make([]map[slotID]uint64, p.members)
	for i := range slots {
		slots[i] = map[slotID]uint64{}
	}
	for _, ops := range p.instants {
		open := make([][]wire.EWOEntry, p.members)
		for _, op := range ops {
			e := wire.EWOEntry{Key: op.key, Value: op.val}
			if p.cfg.Kind != LWW {
				id := slotID{op.key, op.dec}
				slots[op.member][id] += op.delta
				e = counterEntry(op.key, uint16(op.member+1), slots[op.member][id], op.dec)
			}
			u := open[op.member]
			at := slices.IndexFunc(u, func(o wire.EWOEntry) bool {
				return o.Key == e.Key && (p.cfg.Kind == LWW || o.Value[0] == e.Value[0])
			})
			size := wire.EWOUpdateOverhead + e.Size()
			for i := range u {
				if i != at {
					size += u[i].Size()
				}
			}
			past := at < 0 && len(u) >= p.cfg.SyncEntriesPerPacket
			if limit := p.cfg.SyncPacketBytes; limit > 0 {
				past = size > limit
			}
			if len(u) > 0 && past {
				out[op.member] = append(out[op.member], u)
				u, at = nil, -1
			}
			if at >= 0 {
				u[at] = e
			} else {
				u = append(u, e)
			}
			open[op.member] = u
		}
		for m, u := range open {
			if len(u) > 0 {
				out[m] = append(out[m], u)
			}
		}
	}
	return out
}

// coalesceRun is what one execution of a program leaves behind.
type coalesceRun struct {
	digests []map[uint64]string
	sent    []uint64 // UpdatesSent per member
	// seen[r][s] lists the write updates member r received from member s, in
	// arrival order, marshalled.
	seen [][][][]byte
}

// run executes the program on a fresh cluster. flushEach closes the open
// update after every write — one update per register write, the emission
// rule coalescing replaced. Lossless runs have sync off, so whatever state a
// replica ends with arrived in write updates; lossy runs (20 %) turn it on
// and run until every replica agrees.
func (p coalesceProgram) run(t testing.TB, flushEach bool, loss float64) coalesceRun {
	cfg := p.cfg
	cfg.SyncDisabled = loss == 0
	cfg = cfg.withDefaults()
	r := newRig(t, 7, p.members, cfg, netem.LinkProfile{Latency: 10_000, LossRate: loss})
	out := coalesceRun{seen: make([][][][]byte, p.members)}
	for i, sw := range r.sws {
		i, node := i, r.nodes[i]
		out.seen[i] = make([][][]byte, p.members)
		sw.SetMsgHandler(func(_ *pisa.Switch, from netem.Addr, msg wire.Msg) {
			if u, ok := msg.(*wire.EWOUpdate); ok && !u.Sync {
				if len(u.Entries) > cfg.SyncEntriesPerPacket || cfg.SyncPacketBytes > 0 && u.Size() > cfg.SyncPacketBytes {
					t.Fatalf("update of %d entries, %d bytes is over the per-packet bound (%d entries, %d bytes)",
						len(u.Entries), u.Size(), cfg.SyncEntriesPerPacket, cfg.SyncPacketBytes)
				}
				out.seen[i][from-1] = append(out.seen[i][from-1], u.Marshal(nil))
			}
			node.Handle(from, msg)
		})
	}
	for _, ops := range p.instants {
		for _, op := range ops {
			n := r.nodes[op.member]
			switch {
			case cfg.Kind == LWW:
				n.Write(op.key, op.val)
			case op.dec:
				n.Sub(op.key, op.delta)
			default:
				n.Add(op.key, op.delta)
			}
			if flushEach {
				n.Flush()
			}
		}
		r.eng.RunFor(2 * time.Microsecond) // shorter than a link: instants overlap in flight
	}
	r.eng.RunFor(time.Millisecond)
	agree := func() bool {
		for _, n := range r.nodes[1:] {
			if !digestEqual(n.StateDigest(), r.nodes[0].StateDigest()) {
				return false
			}
		}
		return true
	}
	for i := 0; loss > 0 && !agree() && i < 400; i++ {
		r.eng.RunFor(5 * time.Millisecond)
	}
	for _, n := range r.nodes {
		n.Stop()
		out.digests = append(out.digests, n.StateDigest())
		out.sent = append(out.sent, n.Stats.UpdatesSent.Value())
	}
	return out
}

// runCoalesceProgram is the differential check: the same program as issued
// and with a Flush after every write must leave the same state on every
// member, lossless (where the coalesced updates are also compared, entry by
// entry, with the reference) and under loss with sync repairing.
func runCoalesceProgram(t testing.TB, prog []byte) {
	if len(prog) < 5 {
		return
	}
	p := decodeCoalesceProgram(prog)
	want := p.expectedUpdates()
	writes := make([]uint64, p.members)
	for _, ops := range p.instants {
		for _, op := range ops {
			writes[op.member]++
		}
	}

	got, again, each := p.run(t, false, 0), p.run(t, false, 0), p.run(t, true, 0)
	for s := range want {
		if got.sent[s] != uint64(len(want[s])) || each.sent[s] != writes[s] {
			t.Fatalf("member %d sent %d updates for %d writes, reference %d; flushed per write, %d",
				s, got.sent[s], writes[s], len(want[s]), each.sent[s])
		}
		for r := range want {
			if r == s {
				continue
			}
			if len(got.seen[r][s]) != len(want[s]) {
				t.Fatalf("member %d received %d updates from %d, reference %d", r, len(got.seen[r][s]), s, len(want[s]))
			}
			for i, raw := range got.seen[r][s] {
				m, err := wire.Unmarshal(raw)
				if err != nil {
					t.Fatal(err)
				}
				ents := m.(*wire.EWOUpdate).Entries
				if len(ents) != len(want[s][i]) {
					t.Fatalf("update %d of member %d has %d entries, reference %d", i, s, len(ents), len(want[s][i]))
				}
				for j, e := range ents {
					w := want[s][i][j]
					if p.cfg.Kind == LWW {
						w.Stamp = e.Stamp // the reference has no clock
					}
					if e.Key != w.Key || e.Stamp != w.Stamp || !bytes.Equal(e.Value, w.Value) {
						t.Fatalf("update %d of member %d, entry %d = %+v, reference %+v", i, s, j, e, w)
					}
				}
				if !bytes.Equal(raw, again.seen[r][s][i]) {
					t.Fatalf("update %d of member %d differs between two same-seed runs:\n%x\n%x", i, s, raw, again.seen[r][s][i])
				}
			}
		}
	}
	lossy, lossyEach := p.run(t, false, 0.2), p.run(t, true, 0.2)
	for name, run := range map[string]coalesceRun{"flush per write": each, "20% loss": lossy, "20% loss, flush per write": lossyEach} {
		for m, d := range run.digests {
			if !digestEqual(d, got.digests[0]) || !digestEqual(got.digests[m], got.digests[0]) {
				t.Fatalf("member %d (%s) ends with %v; member 0 as issued, lossless: %v", m, name, d, got.digests[0])
			}
		}
	}
	for s := range want {
		if lossy.sent[s] != got.sent[s] {
			t.Fatalf("member %d sent %d updates under loss, %d without", s, lossy.sent[s], got.sent[s])
		}
	}
}

// coalescePrograms returns the deterministic random programs the property
// test runs and the fuzzer starts from: every register kind, group size, key
// range and bound, one each.
func coalescePrograms() [][]byte {
	progs := make([][]byte, 36)
	for i := range progs {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		progs[i] = make([]byte, 3000)
		rng.Read(progs[i])
		progs[i][0] = byte(i)
	}
	return progs
}

// Property: making the instant the unit of emission changes how many updates
// carry the state, never the state.
func TestCoalescedUpdatesMatchPerWriteFlush(t *testing.T) {
	for _, prog := range coalescePrograms() {
		runCoalesceProgram(t, prog)
	}
}

// FuzzUpdateCoalescing feeds arbitrary programs to the same differential check.
func FuzzUpdateCoalescing(f *testing.F) {
	for _, prog := range coalescePrograms()[:6] {
		f.Add(prog[:400]) // an instant and a bit: executions stay cheap
	}
	f.Add([]byte{20, 5, 0, 1, 9, 0, 1, 3, 3, 1, 8, 0, 1, 2}) // PN, byte bound: a slot written, overwritten, written again
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		runCoalesceProgram(t, prog)
	})
}
