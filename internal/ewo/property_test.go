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
	cfg := Config{Reg: 1, Capacity: 4096, ValueWidth: 8, Kind: kind, SyncPeriod: -1}
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
		a.mergeLWW(entries)
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n)
		for _, i := range perm {
			b.mergeLWW(entries[i : i+1])
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
		a.mergeLWW([]wire.EWOEntry{e})
		b.mergeLWW([]wire.EWOEntry{e, e})
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
			entries = append(entries, counterEntry(7, owner, slots[owner]))
		}
		a := mkIsolated(t, Counter, 1)
		b := mkIsolated(t, Counter, 2)
		a.mergeCounters(entries)
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(entries))
		for _, i := range perm {
			b.mergeCounters(entries[i : i+1])
			// Duplicate some deliveries.
			if rng.Intn(3) == 0 {
				b.mergeCounters(entries[i : i+1])
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
			a.mergeCounters([]wire.EWOEntry{counterEntry(1, uint16(owners[i]%6), uint64(vals[i]))})
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

// --- register table vs map reference models ---

// refCounter is the counter state the way it used to be kept: key -> owner
// -> slot value in nested maps. It is the oracle for the slot matrix; the
// only things it knows about the matrix are that keys take rows and owners
// take columns in first-touch order, and that a key past the register's
// capacity is refused.
type refCounter struct {
	self                   uint16
	limit                  int
	keys                   map[uint64]bool
	order                  []uint64 // keys in first-touch order
	vals                   map[uint64]map[uint16]uint64
	owners                 []uint16
	walk                   walkModel
	merged, stale, refused uint64
}

func newRefCounter(self uint16, limit int) *refCounter {
	return &refCounter{self: self, limit: limit, keys: map[uint64]bool{},
		vals: map[uint64]map[uint16]uint64{}, walk: walkModel{chg: map[uint64]uint32{}}}
}

// walkModel is the sync walk's schedule: the rounds and walks so far and,
// per key, the round of the last local write. Every syncFloorWalks-th walk,
// the first included, sends every row whole; any other round sends only the
// node's own part of the rows written within the last syncDeltaRounds rounds.
type walkModel struct {
	round, walks uint32
	chg          map[uint64]uint32
}

// wrote records a local write to key in the current round.
func (w *walkModel) wrote(key uint64) { w.chg[key] = w.round }

// walk runs one whole walk over keys, ascending, in windows of window keys
// (a walk over no keys is one round), and calls emit for each key whose row
// goes out, saying whether it goes out whole.
func (w *walkModel) walk(keys []uint64, window int, emit func(key uint64, floor bool)) {
	floor := w.walks%syncFloorWalks == 0
	w.walks++
	for i := 0; i == 0 || i < len(keys); i += window {
		w.round++
		for _, k := range keys[i:min(i+window, len(keys))] {
			if floor || w.round-w.chg[k] <= syncDeltaRounds {
				emit(k, floor)
			}
		}
	}
}

// slots returns key's slots, touching the key and the owner, or nil if the
// key is refused.
func (m *refCounter) slots(key uint64, owner uint16) map[uint16]uint64 {
	if !m.keys[key] {
		if len(m.order) == m.limit {
			m.refused++
			return nil
		}
		m.keys[key] = true
		m.order = append(m.order, key)
	}
	if !slices.Contains(m.owners, owner) {
		m.owners = append(m.owners, owner)
	}
	if m.vals[key] == nil {
		m.vals[key] = map[uint16]uint64{}
	}
	return m.vals[key]
}

func (m *refCounter) add(key, delta uint64) {
	if s := m.slots(key, m.self); s != nil {
		s[m.self] += delta
		m.walk.wrote(key)
	}
}

// merge applies one received entry; a decrement-marked one is stale and
// touches nothing.
func (m *refCounter) merge(dec bool, key uint64, owner uint16, val uint64) {
	if dec {
		m.stale++
		return
	}
	if s := m.slots(key, owner); s == nil {
		return
	} else if val > s[owner] {
		s[owner] = val
		m.merged++
	} else {
		m.stale++
	}
}

func (m *refCounter) sum(key uint64) uint64 {
	var total uint64
	for _, v := range m.vals[key] {
		total += v
	}
	return total
}

// syncEntries is one whole sync walk: keys ascending, owners in first-touch
// order (in a delta round, the node's own slot only), zero slots skipped.
func (m *refCounter) syncEntries(window int) []wire.EWOEntry {
	keys := slices.Clone(m.order)
	slices.Sort(keys)
	var out []wire.EWOEntry
	m.walk.walk(keys, window, func(k uint64, floor bool) {
		owners := m.owners
		if !floor {
			owners = []uint16{m.self}
		}
		for _, o := range owners {
			if v := m.vals[k][o]; v != 0 {
				out = append(out, counterEntry(k, o, v))
			}
		}
	})
	return out
}

// decEntry is a counter entry marked as a decrement (Value[0] == 1), which no
// counter accepts.
func decEntry(key uint64, owner uint16, val uint64) wire.EWOEntry {
	e := counterEntry(key, owner, val)
	e.Value = []byte{1}
	return e
}

// tableProbe is a node whose sync packets land in a capture buffer: seven
// sink addresses make up the rest of its replica group (with one sink the
// random target draw would hit the node itself eight times in a row, and
// lose the round, once in 256).
type tableProbe struct {
	eng    *sim.Engine
	n      *Node
	synced [][]wire.EWOEntry // one element per sync packet
}

func newTableProbe(t testing.TB, kind Kind, capacity int) *tableProbe {
	t.Helper()
	p := &tableProbe{eng: sim.NewEngine(1)}
	nw := netem.New(p.eng, netem.LinkProfile{})
	sw := pisa.New(p.eng, nw, pisa.Config{Addr: 1})
	n, err := NewNode(sw, Config{Reg: 1, Capacity: capacity, ValueWidth: probeWidth, Kind: kind, SyncPeriod: -1, SyncWindow: probeWindow})
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
	p.n.syncCursor = len(p.n.syncRows)
	p.synced = p.synced[:0]
	p.n.syncRound()
	return p.walkRest()
}

// walkRest runs the current sync walk to its end and returns every entry
// captured since synced was last emptied, in walk order.
func (p *tableProbe) walkRest() []wire.EWOEntry {
	for p.n.syncCursor < len(p.n.syncRows) {
		p.n.syncRound()
	}
	p.eng.RunFor(time.Millisecond)
	// Packets to different sinks arrive in link order, not send order; a
	// walk's packets cover ascending key windows, so sorting restores it.
	slices.SortFunc(p.synced, func(a, b []wire.EWOEntry) int { return cmp.Compare(a[0].Key, b[0].Key) })
	return slices.Concat(p.synced...)
}

// checkTable asserts the counter matrix's own invariants (the key index's
// are pisa's FuzzKeyTable's).
func checkTable(t testing.TB, tb *table) {
	t.Helper()
	if got, want := len(tb.cells), tb.keys.Len()*tb.stride; got != want {
		t.Fatalf("cells = %d, want %d rows x stride %d", got, tb.keys.Len(), tb.stride)
	}
	if len(tb.owners) > tb.stride {
		t.Fatalf("%d owners in stride %d", len(tb.owners), tb.stride)
	}
}

// rowKeys returns the table's keys in row order.
func rowKeys(tb *table) []uint64 {
	keys := make([]uint64, tb.keys.Len())
	for r := range keys {
		keys[r] = tb.keys.Key(r)
	}
	return keys
}

// checkModel asserts that the matrix holds exactly the model's state: its
// rows in the model's key order, its columns in the model's owner order,
// every cell equal to the model's slot, and the same merge counts.
func checkModel(t testing.TB, n *Node, m *refCounter) {
	t.Helper()
	tb := &n.tab
	if keys := rowKeys(tb); !slices.Equal(keys, m.order) {
		t.Fatalf("rows %v, model %v", keys, m.order)
	}
	if !slices.Equal(tb.owners, m.owners) {
		t.Fatalf("columns %v, model %v", tb.owners, m.owners)
	}
	for r, k := range rowKeys(tb) {
		for c, v := range tb.slots(r) {
			if want := m.vals[k][tb.owners[c]]; v != want {
				t.Fatalf("key %d owner %d = %d, model %d", k, tb.owners[c], v, want)
			}
		}
	}
	checkCounts(t, n, m.merged, m.stale, m.refused)
}

// checkCounts asserts the node's merge and refusal counts.
func checkCounts(t testing.TB, n *Node, merged, stale, refused uint64) {
	t.Helper()
	if got := n.Stats.EntriesMerged.Value(); got != merged {
		t.Fatalf("EntriesMerged = %d, model %d", got, merged)
	}
	if got := n.Stats.EntriesStale.Value(); got != stale {
		t.Fatalf("EntriesStale = %d, model %d", got, stale)
	}
	if got := n.Stats.KeysRefused.Value(); got != refused {
		t.Fatalf("KeysRefused = %d, model %d", got, refused)
	}
}

// probeCapacity is the table probes' Capacity: the programs' 768 keys pass
// it, and the key table still rehashes twice on the way. probeWidth is the
// LWW probe's ValueWidth.
const (
	probeCapacity = 256
	probeWidth    = 8
	probeWindow   = 16
)

// programKey reads a key of a table program: below Capacity, far above it,
// or at the top of the range; 768 of them, so a long program takes the key
// table through rehashes and past Capacity.
func programKey(next func() uint64) uint64 {
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

// programReader returns the byte reader a table program's ops draw from; it
// reads zeros past the end.
func programReader(prog *[]byte) func() uint64 {
	return func() uint64 {
		if len(*prog) == 0 {
			return 0
		}
		b := (*prog)[0]
		*prog = (*prog)[1:]
		return uint64(b)
	}
}

// runTableProgram interprets prog as a sequence of counter operations and
// applies each to a node and to the reference model, comparing everything a
// caller or a peer can observe; it returns the keys the model refused. The
// byte encoding is total (every string is a program), so the fuzzer and the
// random property test share it.
func runTableProgram(t testing.TB, prog []byte) uint64 {
	if len(prog) == 0 {
		return 0
	}
	p := newTableProbe(t, Counter, probeCapacity)
	n, m := p.n, newRefCounter(1, probeCapacity)
	next := programReader(&prog)
	key := func() uint64 { return programKey(next) }
	// 40 owners: churn far past MaxGroup, so the stride doubles three times.
	owner := func() uint16 {
		if o := next() % 40; o > 0 {
			return uint16(o)
		}
		return 0xfffe
	}
	// The column order of the peer whose sync packets op 8 receives.
	var sender []uint16
	for len(prog) > 0 {
		switch op := next(); op % 9 {
		case 0:
			k, d := key(), next()
			n.Add(k, d)
			m.add(k, d)
		case 1: // merge a decrement-marked announcement: stale, no row
			k, o := key(), owner()
			n.mergeCounters([]wire.EWOEntry{decEntry(k, o, 1+next())})
			m.merge(true, k, o, 0)
		case 2, 3, 4: // merge a newer, an equal, a stale announcement
			k, o := key(), owner()
			cur := m.vals[k][o]
			val := cur + 1 + next()
			if op%9 == 3 {
				val = cur
			} else if op%9 == 4 {
				val = cur / 2
			}
			n.mergeCounters([]wire.EWOEntry{counterEntry(k, o, val)})
			m.merge(false, k, o, val)
		case 5:
			k := key()
			if got, want := n.Sum(k), m.sum(k); got != want {
				t.Fatalf("Sum(%d) = %d, model %d", k, got, want)
			}
		case 6:
			got, want := p.fullWalk(), m.syncEntries(probeWindow)
			if len(got) != len(want) {
				t.Fatalf("sync walk sent %d entries, model %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key || got[i].Stamp != want[i].Stamp || got[i].Value[0] != want[i].Value[0] {
					t.Fatalf("sync entry %d = %+v, model %+v", i, got[i], want[i])
				}
			}
		case 7:
			checkTable(t, &n.tab)
			if got, want := n.tab.keys.Len(), len(m.keys); got != want {
				t.Fatalf("%d rows, model %d keys", got, want)
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
		case 8: // receive a sync-shaped update
			// Runs of one key, each slot once, in the sender's column order,
			// increments before decrement-marked entries; values newer, equal
			// or older than the model's, decrement-marked entries mixed in
			// (stale, and they create no row).
			type slot struct {
				vec, col int
				owner    uint16
			}
			u := &wire.EWOUpdate{Reg: 1, From: 2, Sync: true}
			for keys := 1 + next()%4; keys > 0; keys-- {
				k := key()
				var run []slot
				for slots := 1 + next()%8; slots > 0; slots-- {
					o, vec := owner(), int(next()&1)
					col := slices.Index(sender, o)
					if col < 0 {
						col, sender = len(sender), append(sender, o)
					}
					if !slices.ContainsFunc(run, func(s slot) bool { return s.owner == o && s.vec == vec }) {
						run = append(run, slot{vec, col, o})
					}
				}
				slices.SortFunc(run, func(a, b slot) int { return cmp.Or(cmp.Compare(a.vec, b.vec), cmp.Compare(a.col, b.col)) })
				for _, s := range run {
					cur := m.vals[k][s.owner]
					sel := next()
					val := cur + sel%4
					if sel&4 != 0 {
						val = cur / 2
					}
					e := counterEntry(k, s.owner, max(val, 1))
					if s.vec == 1 {
						e = decEntry(k, s.owner, max(val, 1))
					}
					u.Entries = append(u.Entries, e)
				}
			}
			n.Handle(2, u)
			for _, e := range u.Entries {
				m.merge(e.Value[0] == 1, e.Key, uint16(e.Stamp.Node), uint64(e.Stamp.Time))
			}
			checkModel(t, n, m)
		}
	}
	p.eng.RunFor(time.Millisecond)
	checkModel(t, n, m)
	checkTable(t, &n.tab)
	return m.refused
}

// tablePrograms returns the deterministic random programs the property test
// runs and the fuzzer starts from.
func tablePrograms(count, ops int) [][]byte {
	progs := make([][]byte, count)
	for i := range progs {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		progs[i] = make([]byte, 6*ops)
		rng.Read(progs[i])
	}
	return progs
}

// Property: over random programs of Add/merge/Sum/sync/digest and received
// sync-shaped updates — keys on both sides of Capacity, decrement-marked
// entries, 40 slot owners, hundreds of keys, more than the register holds —
// the slot matrix is indistinguishable from nested maps that refuse a key
// past Capacity and a decrement-marked entry.
func TestCounterTableMatchesNestedMaps(t *testing.T) {
	var strides int
	var refused uint64
	for _, prog := range tablePrograms(8, 1000) {
		refused += runTableProgram(t, prog)
	}
	// The programs are meant to cross the growth paths and Capacity; make
	// sure they do.
	if refused == 0 {
		t.Fatal("no program took the table past Capacity")
	}
	p := newTableProbe(t, Counter, 1024)
	for i := uint64(0); i < 700; i++ {
		stride := p.n.tab.stride
		p.n.mergeCounters([]wire.EWOEntry{counterEntry(i*i, uint16(i%40+1), i+1)})
		if p.n.tab.stride != stride {
			strides++
		}
	}
	checkTable(t, &p.n.tab)
	if strides < 3 {
		t.Fatalf("700 keys x 40 owners: %d stride doublings", strides)
	}
}

// The counter sync walk is a snapshot of rows in key order: keys added
// mid-walk wait for the next walk and then go out in key order, as they do
// on a walk over an unchanged key set, which reuses the snapshot (that a
// reused snapshot is a fresh sort's order is pisa's FuzzKeyTable's).
func TestCounterSyncWalkSnapshot(t *testing.T) {
	keysOf := func(walk []wire.EWOEntry) []uint64 {
		var ks []uint64
		for _, e := range walk {
			if len(ks) == 0 || ks[len(ks)-1] != e.Key {
				ks = append(ks, e.Key)
			}
		}
		return ks
	}
	p := newTableProbe(t, Counter, probeCapacity)
	var early []uint64
	for i := uint64(0); i < 40; i++ {
		k := 1000 + i*37%40*10 // first touch out of key order
		p.n.Add(k, i+1)
		early = append(early, k)
	}
	slices.Sort(early)

	p.n.syncCursor = len(p.n.syncRows)
	p.synced = p.synced[:0]
	p.n.syncRound() // the first 16 of 40 keys
	late := []uint64{5, 1005, 5000}
	for _, k := range late {
		p.n.Add(k, 1)
	}
	if got := keysOf(p.walkRest()); !slices.Equal(got, early) {
		t.Fatalf("walk under way when keys were added sent keys %v, want %v", got, early)
	}
	all := append(slices.Clone(early), late...)
	slices.Sort(all)
	if got := keysOf(p.fullWalk()); !slices.Equal(got, all) {
		t.Fatalf("next walk sent keys %v, want %v", got, all)
	}
	if got := keysOf(p.fullWalk()); !slices.Equal(got, all) {
		t.Fatalf("walk over an unchanged key set sent keys %v, want %v", got, all)
	}
}

// FuzzCounterTable feeds arbitrary programs to the same differential check.
func FuzzCounterTable(f *testing.F) {
	for _, prog := range tablePrograms(4, 200) {
		f.Add(prog)
	}
	f.Add([]byte{1, 0, 0, 0, 4, 0, 0, 9, 1, 6, 7})             // a decrement-marked merge (no row), Add(3, 1), sync, digest
	f.Add([]byte{8, 0, 0, 0, 2, 5, 0, 6, 1, 5, 1, 1, 2, 3, 7}) // a sync run of one key with two decrement-marked slots, digest
	f.Fuzz(func(t *testing.T, prog []byte) { runTableProgram(t, prog) })
}

// refLWW is the LWW state the way it used to be kept: a map of key to stamp
// and value. It is the oracle for the LWW table; the only things it knows
// about the table are that keys take rows in first-touch order, that a key
// past the register's capacity is refused, and that a value wider than the
// register is discarded. It keeps the writer's clock too: Synced.Now's
// skewed, strictly increasing engine time.
type refLWW struct {
	limit                  int
	order                  []uint64
	cells                  map[uint64]wire.EWOEntry
	offset                 sim.Duration
	last                   sim.Time
	walk                   walkModel
	merged, stale, refused uint64
}

// admit reports whether key has a row, giving it one if there is room.
func (m *refLWW) admit(key uint64) bool {
	if _, ok := m.cells[key]; ok {
		return true
	}
	if len(m.order) == m.limit {
		m.refused++
		return false
	}
	m.order = append(m.order, key)
	return true
}

func (m *refLWW) write(now sim.Time, self timesync.NodeID, key uint64, val []byte) {
	if !m.admit(key) {
		return
	}
	t := max(now.Add(m.offset), m.last+1)
	m.last = t
	m.walk.wrote(key)
	m.cells[key] = wire.EWOEntry{Key: key, Stamp: timesync.Stamp{Time: t, Node: self}, Value: slices.Clone(val[:min(len(val), probeWidth)])}
}

func (m *refLWW) merge(e wire.EWOEntry) {
	if len(e.Value) > probeWidth {
		m.stale++
		return
	}
	cur, ok := m.cells[e.Key]
	if !m.admit(e.Key) {
		return
	}
	if ok && !cur.Stamp.Less(e.Stamp) {
		m.stale++
		return
	}
	m.cells[e.Key] = wire.EWOEntry{Key: e.Key, Stamp: e.Stamp, Value: slices.Clone(e.Value)}
	m.merged++
}

// runLWWProgram interprets prog as a sequence of LWW operations — writes of
// short, full and over-width values, received updates whose entries are
// newer, equal, older or tied with the model's and carry short, full or
// over-width values, reads, full sync walks, cell-by-cell comparisons and
// clock advances — and applies each to a node and to the reference model;
// it returns the keys the model refused. Like runTableProgram's, the
// encoding is total.
func runLWWProgram(t testing.TB, prog []byte) uint64 {
	p := newTableProbe(t, LWW, probeCapacity)
	n := p.n
	m := &refLWW{limit: probeCapacity, cells: map[uint64]wire.EWOEntry{}, offset: n.clock.Offset(),
		walk: walkModel{chg: map[uint64]uint32{}}}
	next := programReader(&prog)
	key := func() uint64 { return programKey(next) }
	value := func(maxLen uint64) []byte {
		v := make([]byte, next()%(maxLen+1))
		for i := range v {
			v[i] = byte(next())
		}
		return v
	}
	check := func() {
		checkTable(t, &n.tab)
		keys := rowKeys(&n.tab)
		if !slices.Equal(keys, m.order) {
			t.Fatalf("rows %v, model %v", keys, m.order)
		}
		d := n.StateDigest()
		for r, k := range keys {
			st, val := n.tab.cell(r)
			want := m.cells[k]
			if st != want.Stamp || !bytes.Equal(val, want.Value) {
				t.Fatalf("key %d cell = %v %x, model %v %x", k, st, val, want.Stamp, want.Value)
			}
			if w := fmt.Sprintf("%v:%x", want.Stamp, want.Value); d[k] != w {
				t.Fatalf("digest[%d] = %q, model %q", k, d[k], w)
			}
		}
		if n.tab.keys.Len() != len(m.order) || len(d) != len(m.order) {
			t.Fatalf("%d rows, digest has %d keys, model %d", n.tab.keys.Len(), len(d), len(m.order))
		}
		checkCounts(t, n, m.merged, m.stale, m.refused)
	}
	for len(prog) > 0 {
		switch op := next(); op % 7 {
		case 0:
			k, v := key(), value(probeWidth+3)
			n.Write(k, v)
			m.write(p.eng.Now(), 1, k, v)
		case 1, 2: // receive an update of 1-4 entries
			u := &wire.EWOUpdate{Reg: 1, From: 2, Sync: op%7 == 2}
			for ents := 1 + next()%4; ents > 0; ents-- {
				k := key()
				st := m.cells[k].Stamp
				switch sel := next(); sel % 4 {
				case 0: // newer
					st = timesync.Stamp{Time: st.Time + 1 + sim.Time(next()), Node: timesync.NodeID(next() % 4)}
				case 1: // older
					st.Time -= 1 + sim.Time(next())
				case 2: // tied time, either side of the stamp's node
					st.Node = timesync.NodeID(next() % 4)
				}
				u.Entries = append(u.Entries, wire.EWOEntry{Key: k, Stamp: st, Value: value(probeWidth + 1)})
			}
			n.Handle(2, u)
			for _, e := range u.Entries {
				m.merge(e)
			}
		case 3:
			k := key()
			got, ok := n.Read(k)
			want, wok := m.cells[k]
			if ok != wok || !bytes.Equal(got, want.Value) {
				t.Fatalf("Read(%d) = %x %v, model %x %v", k, got, ok, want.Value, wok)
			}
			for i := range got {
				got[i] ^= 0xff // the caller owns the copy
			}
		case 4:
			// A floor walk sends every cell; a delta round the recently
			// written cells whose stamp is still the node's own.
			got := p.fullWalk()
			var want []wire.EWOEntry
			keys := slices.Clone(m.order)
			slices.Sort(keys)
			m.walk.walk(keys, probeWindow, func(k uint64, floor bool) {
				if w := m.cells[k]; floor || w.Stamp.Node == 1 {
					want = append(want, w)
				}
			})
			if len(got) != len(want) {
				t.Fatalf("sync walk sent %d entries, model %d", len(got), len(want))
			}
			for i, w := range want {
				if got[i].Key != w.Key || got[i].Stamp != w.Stamp || !bytes.Equal(got[i].Value, w.Value) {
					t.Fatalf("sync entry %d = %+v, model %+v", i, got[i], w)
				}
			}
		case 5:
			check()
		case 6:
			p.eng.RunFor(sim.Duration(next()))
		}
	}
	p.eng.RunFor(time.Millisecond)
	check()
	return m.refused
}

// Property: over random programs, the LWW table is indistinguishable from a
// map of key to stamp and value that refuses a key past Capacity and a value
// wider than the register.
func TestLWWTableMatchesMap(t *testing.T) {
	var refused uint64
	for _, prog := range tablePrograms(8, 1000) {
		refused += runLWWProgram(t, prog)
	}
	if refused == 0 {
		t.Fatal("no program took the table past Capacity")
	}
}

// FuzzLWWTable feeds arbitrary programs to the same differential check.
func FuzzLWWTable(f *testing.F) {
	for _, prog := range tablePrograms(4, 200) {
		f.Add(prog)
	}
	f.Add([]byte{0, 0, 5, 3, 1, 2, 2, 0, 5, 0, 9, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4, 5}) // write, a 9-byte value from a peer, walk, compare
	f.Fuzz(func(t *testing.T, prog []byte) { runLWWProgram(t, prog) })
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
	delta  uint64 // counters
	val    []byte // LWW
}

// decodeCoalesceProgram reads prog as a coalescing program. The encoding is
// total, so the fuzzer and the property test share it: byte 0 picks the kind,
// 3–5 members and 4 or 400 keys (400 keys fill wire.MaxUpdateBytes within a
// burst, so updates close early); then instants follow, each a count byte
// (1–200 ops) and three bytes per op.
func decodeCoalesceProgram(prog []byte) coalesceProgram {
	b := int(prog[0])
	p := coalesceProgram{
		cfg:     Config{Reg: 1, Capacity: 512, ValueWidth: 8, Kind: Kind(b % 2), SyncPeriod: 100 * time.Microsecond},
		members: 3 + b/2%3,
	}
	keys := uint64(4)
	if b/6%2 == 1 {
		keys = 400
	}
	for prog = prog[1:]; len(prog) > 0; {
		count := 1 + int(prog[0])%200
		prog = prog[1:]
		var ops []coalesceOp
		for ; count > 0 && len(prog) >= 3; count, prog = count-1, prog[3:] {
			sel, v := int(prog[0]), prog[2]
			ops = append(ops, coalesceOp{
				member: sel % p.members,
				key:    (uint64(sel/p.members)<<8 | uint64(prog[1])) % keys,
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
// entry would pass wire.MaxUpdateBytes.
func (p coalesceProgram) expectedUpdates() [][][]wire.EWOEntry {
	out := make([][][]wire.EWOEntry, p.members)
	slots := make([]map[uint64]uint64, p.members)
	for i := range slots {
		slots[i] = map[uint64]uint64{}
	}
	for _, ops := range p.instants {
		open := make([][]wire.EWOEntry, p.members)
		for _, op := range ops {
			e := wire.EWOEntry{Key: op.key, Value: op.val}
			if p.cfg.Kind != LWW {
				slots[op.member][op.key] += op.delta
				e = counterEntry(op.key, uint16(op.member+1), slots[op.member][op.key])
			}
			u := open[op.member]
			at := slices.IndexFunc(u, func(o wire.EWOEntry) bool { return o.Key == e.Key })
			size := wire.EWOUpdateOverhead + e.Size()
			for i := range u {
				if i != at {
					size += u[i].Size()
				}
			}
			if len(u) > 0 && size > wire.MaxUpdateBytes {
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
	if loss == 0 {
		cfg.SyncPeriod = -1
	}
	cfg = cfg.withDefaults()
	r := newRig(t, 7, p.members, cfg, netem.LinkProfile{Latency: 10_000, LossRate: loss})
	out := coalesceRun{seen: make([][][][]byte, p.members)}
	for i, sw := range r.sws {
		i, node := i, r.nodes[i]
		out.seen[i] = make([][][]byte, p.members)
		sw.SetMsgHandler(func(_ *pisa.Switch, from netem.Addr, msg wire.Msg) {
			if u, ok := msg.(*wire.EWOUpdate); ok && !u.Sync {
				if u.Size() > wire.MaxUpdateBytes {
					t.Fatalf("update of %d entries, %d bytes is over wire.MaxUpdateBytes", len(u.Entries), u.Size())
				}
				out.seen[i][from-1] = append(out.seen[i][from-1], u.Marshal(nil))
			}
			node.Handle(from, msg)
		})
	}
	for _, ops := range p.instants {
		for _, op := range ops {
			n := r.nodes[op.member]
			if cfg.Kind == LWW {
				n.Write(op.key, op.val)
			} else {
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
// test runs and the fuzzer starts from: every register kind, group size and
// key range, two each.
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
	f.Add([]byte{20, 5, 0, 1, 9, 0, 1, 3, 3, 1, 8, 0, 1, 2}) // PN: a slot written, overwritten, written again
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		runCoalesceProgram(t, prog)
	})
}
