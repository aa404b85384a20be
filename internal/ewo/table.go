package ewo

import (
	"encoding/binary"
	"fmt"
	"slices"

	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/timesync"
	"swishmem/internal/wire"
)

// table holds a register's state in the layout §7 gives it: a register array
// with one fixed-width row per key, found through the switch's keyed register
// resource (pisa.KeyTable), which hands rows out in first-touch order, never
// removes one, and refuses a new key past Config.Capacity, whether a local
// write or a received entry brought it.
//
// A counter row is "one register array for each switch in the replica
// group": one column per slot owner, handed out in first-touch order through
// an owner directory scanned linearly (at most MaxGroup owners, 8 by
// default) after a check of the column found last. stride, the column slots
// per row, starts at MaxGroup — the SRAM reservation — and doubles,
// re-laying every row, if membership churn brings in more owners than that:
// a G-counter never forgets a departed writer's slot.
//
// A row's key-table cell starts with its change register, the sync round of
// this switch's last local write to it, written with the row: the delta
// rounds of the sync walk read it (see appendRows). An LWW row's cell goes
// on: the stamp's time and node, the value's length, then ValueWidth bytes.
// Cells are overwritten in place, so no entry that leaves the node may point
// into one.
type table struct {
	keys *pisa.KeyTable // key -> row and row -> cell

	owners []uint16 // column -> slot owner, in first-touch order
	last   int      // the column colFor returned last
	stride int      // column slots per row (>= len(owners))
	cells  []uint64 // counters: row r, column c at r*stride + c

	width int // bytes per LWW cell: 0 (counters) or lwwHeader + ValueWidth
}

const (
	// chgBytes is the size of a row's change register, its cell's first bytes.
	chgBytes = 4

	// lwwHeader is an LWW cell's stamp time (8 bytes), stamp node (2) and
	// value length (2).
	lwwHeader = 12
)

// newTable allocates the register's key table on sw, the node's one SRAM
// charge, per the §7 layout. LWW: one (version, value) pair per key, a
// 10-byte stamp + the value. Counters: one register array per group member,
// each (version, value) = 16 bytes per key. Both: the 4-byte change
// register.
func newTable(sw *pisa.Switch, cfg Config) (table, error) {
	t := table{width: lwwHeader + cfg.ValueWidth}
	name, perKey := fmt.Sprintf("ewo-lww%d", cfg.Reg), 10+cfg.ValueWidth
	if cfg.Kind != LWW {
		t.stride, t.width = cfg.MaxGroup, 0
		name, perKey = fmt.Sprintf("ewo-ctr%d", cfg.Reg), cfg.MaxGroup*16
	}
	var err error
	t.keys, err = sw.NewKeyTable(name, cfg.Capacity, perKey+chgBytes, chgBytes+t.width)
	return t, err
}

// rowFor returns key's row, appending a zeroed one on first touch, or -1 if
// the key is new and the table already holds Capacity rows.
func (t *table) rowFor(key uint64) int {
	rows := t.keys.Len()
	r := t.keys.RowFor(key)
	if t.keys.Len() > rows {
		t.cells = append(t.cells, make([]uint64, t.stride)...)
	}
	return r
}

// chg reads row r's change register.
func (t *table) chg(r int) uint32 { return binary.LittleEndian.Uint32(t.keys.Cell(r)) }

// wrote sets row r's change register to round.
func (t *table) wrote(r int, round uint32) { binary.LittleEndian.PutUint32(t.keys.Cell(r), round) }

// colFor returns owner's column, appending one on first touch.
func (t *table) colFor(owner uint16) int {
	if c := t.last; c < len(t.owners) && t.owners[c] == owner {
		return c
	}
	for c, o := range t.owners {
		if o == owner {
			t.last = c
			return c
		}
	}
	if len(t.owners) == t.stride {
		t.widen()
	}
	t.owners = append(t.owners, owner)
	t.last = len(t.owners) - 1
	return t.last
}

// widen doubles the stride, moving every row to its new offset.
func (t *table) widen() {
	old, stride := t.stride, 2*t.stride
	cells := make([]uint64, t.keys.Len()*stride)
	for r := 0; r < t.keys.Len(); r++ {
		copy(cells[r*stride:], t.cells[r*old:(r+1)*old])
	}
	t.cells, t.stride = cells, stride
}

// slots returns the live columns of counter row r, in directory order.
func (t *table) slots(r int) []uint64 {
	base := r * t.stride
	return t.cells[base : base+len(t.owners)]
}

// cell returns row r's LWW stamp and value. The value points into the cell.
func (t *table) cell(r int) (timesync.Stamp, []byte) {
	c := t.keys.Cell(r)[chgBytes:]
	st := timesync.Stamp{Time: sim.Time(binary.LittleEndian.Uint64(c)), Node: timesync.NodeID(binary.LittleEndian.Uint16(c[8:]))}
	n := lwwHeader + int(binary.LittleEndian.Uint16(c[10:]))
	return st, c[lwwHeader:n:n]
}

// store overwrites row r's LWW cell; val must fit ValueWidth.
func (t *table) store(r int, st timesync.Stamp, val []byte) {
	c := t.keys.Cell(r)[chgBytes:]
	binary.LittleEndian.PutUint64(c, uint64(st.Time))
	binary.LittleEndian.PutUint16(c[8:], uint16(st.Node))
	binary.LittleEndian.PutUint16(c[10:], uint16(len(val)))
	copy(c[lwwHeader:], val)
}

// appendRows appends the sync entries of rows, in the order given. A floor
// round (delta false) describes each row's full local state. An LWW row is
// one entry, its value copied into one slab for the whole window. A counter
// row is every known slot, so updates survive the failure of their original
// writer (§6.3: "any switch that did receive the update can then synchronize
// the other switches"); slots go out in column-directory order, so a sync
// packet's bytes are a function of the seed. A slot holding 0 is not
// gossiped: it is what every replica assumes of a slot it has not heard
// about (only Add(k, 0) can leave a touched slot at 0).
//
// A delta round describes only what switch self wrote within the last
// syncDeltaRounds rounds before round: of the rows whose change register
// says so, an LWW cell whose stamp is self's and a counter row's self slots.
func (t *table) appendRows(dst []wire.EWOEntry, rows []int32, delta bool, self uint16, round uint32) []wire.EWOEntry {
	lo, hi := 0, len(t.owners)
	if delta && t.width == 0 {
		if lo = slices.Index(t.owners, self); lo < 0 {
			return dst // self never wrote a slot
		}
		hi = lo + 1
	}
	var slab []byte
	if t.width > 0 {
		slab = make([]byte, 0, len(rows)*(t.width-lwwHeader))
	}
	for _, r := range rows {
		if delta && round-t.chg(int(r)) > syncDeltaRounds {
			continue
		}
		if t.width > 0 {
			st, val := t.cell(int(r))
			if delta && uint16(st.Node) != self {
				continue
			}
			slab = append(slab, val...)
			dst = append(dst, wire.EWOEntry{Key: t.keys.Key(int(r)), Stamp: st, Value: slab[len(slab)-len(val) : len(slab) : len(slab)]})
			continue
		}
		key, n := t.keys.Key(int(r)), len(dst)
		dst = slices.Grow(dst, hi-lo)[:n+hi-lo]
		for c, v := range t.slots(int(r))[lo:hi] {
			if v != 0 {
				setCounterEntry(&dst[n], key, t.owners[lo+c], v)
				n++
			}
		}
		dst = dst[:n]
	}
	return dst
}

// sum reads counter row r: the sum of its slots.
func (t *table) sum(r int) uint64 {
	var total uint64
	for _, v := range t.slots(r) {
		total += v
	}
	return total
}
