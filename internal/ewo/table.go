package ewo

import (
	"math/bits"
	"slices"

	"swishmem/internal/wire"
)

// counterTable holds a counter register's state in the layout §7 gives it:
// "one register array for each switch in the replica group", i.e. a matrix
// of fixed slots with one row per key and one column per slot owner. A slot
// access is one key lookup plus an index — no nested map, no map iterator —
// which is what a register access at line rate is.
//
// Rows are found through one open-addressed key table (Fibonacci hash,
// linear probing, at most half full, grown by doubling), are handed out in
// first-touch order and are never removed, so the rows a table holds are
// always 0..len(keys)-1: the sync walk keeps them in key order and re-sorts
// only when rows were added (see Node.syncRows). Nothing is sized by
// Config.Capacity: the SRAM charge is made against the switch's budget in
// NewNode, the host memory follows the keys actually touched.
//
// Columns are handed out in first-touch order too, through a small owner
// directory that is scanned linearly (a replica group is at most MaxGroup
// switches, 8 by default, so the scan beats any hash) after a check of the
// column found last: every entry of a write update shares its sender, and
// every Add is the switch's own. stride, the number of column slots reserved
// per vector, starts at MaxGroup — the SRAM reservation — and doubles,
// re-laying every row, if membership churn ever brings in more owners than
// that: a G-counter can never forget a departed writer's slot. A PN counter
// keeps its decrement vector in the second half of the row.
type counterTable struct {
	idx   []tableEnt // open-addressed key -> row; len is 0 or a power of two
	shift uint       // 64 - log2(len(idx))
	keys  []uint64   // row -> key, in first-touch order

	owners []uint16 // column -> slot owner, in first-touch order
	last   int      // the column colFor returned last
	stride int      // column slots per vector (>= len(owners))
	vecs   int      // vectors per row: 1 (increments) or 2 (+ decrements)
	cells  []uint64 // row r, vector v, column c at (r*vecs+v)*stride + c
}

// tableEnt is one key-table bucket; row is stored +1 so the zero entry is
// empty.
type tableEnt struct {
	key uint64
	row uint32
}

const (
	incVec = 0
	decVec = 1

	// tableMinBuckets is the key table's first allocation.
	tableMinBuckets = 64
)

func newCounterTable(maxGroup int, pn bool) counterTable {
	t := counterTable{stride: maxGroup, vecs: 1}
	if pn {
		t.vecs = 2
	}
	return t
}

// bucket returns key's home bucket.
func (t *counterTable) bucket(key uint64) int {
	return int(key * 0x9e3779b97f4a7c15 >> t.shift)
}

// row returns key's row, or -1 if the key was never touched.
func (t *counterTable) row(key uint64) int {
	if len(t.idx) == 0 {
		return -1
	}
	mask := len(t.idx) - 1
	for i := t.bucket(key); ; i = (i + 1) & mask {
		e := &t.idx[i]
		if e.row == 0 {
			return -1
		}
		if e.key == key {
			return int(e.row - 1)
		}
	}
}

// rowFor returns key's row, appending a zeroed one on first touch.
func (t *counterTable) rowFor(key uint64) int {
	if len(t.keys)*2 >= len(t.idx) {
		t.rehash()
	}
	mask := len(t.idx) - 1
	for i := t.bucket(key); ; i = (i + 1) & mask {
		e := &t.idx[i]
		if e.row == 0 {
			t.keys = append(t.keys, key)
			t.cells = append(t.cells, make([]uint64, t.vecs*t.stride)...)
			e.key, e.row = key, uint32(len(t.keys))
			return len(t.keys) - 1
		}
		if e.key == key {
			return int(e.row - 1)
		}
	}
}

// rehash doubles the key table (or makes the first one) and re-inserts every
// key; rows do not move.
func (t *counterTable) rehash() {
	n := max(2*len(t.idx), tableMinBuckets)
	t.idx = make([]tableEnt, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for r, key := range t.keys {
		i := t.bucket(key)
		for t.idx[i].row != 0 {
			i = (i + 1) & mask
		}
		t.idx[i] = tableEnt{key: key, row: uint32(r + 1)}
	}
}

// colFor returns owner's column, appending one on first touch.
func (t *counterTable) colFor(owner uint16) int {
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

// widen doubles the stride, moving every vector to its new offset.
func (t *counterTable) widen() {
	old, stride := t.stride, 2*t.stride
	cells := make([]uint64, len(t.keys)*t.vecs*stride)
	for v := 0; v < len(t.keys)*t.vecs; v++ {
		copy(cells[v*stride:], t.cells[v*old:(v+1)*old])
	}
	t.cells, t.stride = cells, stride
}

// slot returns the cell of (key, owner) in vector vec, creating the row and
// the column on first touch. The pointer is valid until the next slot call.
func (t *counterTable) slot(key uint64, owner uint16, vec int) *uint64 {
	r, c := t.rowFor(key), t.colFor(owner)
	return &t.cells[(r*t.vecs+vec)*t.stride+c]
}

// vector returns the live columns of row r's vector vec, in directory order.
func (t *counterTable) vector(r, vec int) []uint64 {
	base := (r*t.vecs + vec) * t.stride
	return t.cells[base : base+len(t.owners)]
}

// appendRow appends the sync entries describing row r's full local state:
// every known slot, so updates survive the failure of their original writer
// (§6.3: "any switch that did receive the update can then synchronize the
// other switches"). Slots go out in column-directory order, increments
// before decrements, so a sync packet's bytes are a function of the seed. A
// slot holding 0 is not gossiped: it is what every replica assumes of a slot
// it has not heard about (only Add(k, 0) and Sub(k, 0) can leave a touched
// slot at 0).
func (t *counterTable) appendRow(dst []wire.EWOEntry, r int32) []wire.EWOEntry {
	key, n := t.keys[r], len(dst)
	dst = slices.Grow(dst, t.vecs*len(t.owners))[:n+t.vecs*len(t.owners)]
	for vec := 0; vec < t.vecs; vec++ {
		for c, v := range t.vector(int(r), vec) {
			if v != 0 {
				setCounterEntry(&dst[n], key, t.owners[c], v, vec == decVec)
				n++
			}
		}
	}
	return dst[:n]
}

// sum reads key's counter: increment slots minus decrement slots.
func (t *counterTable) sum(key uint64) uint64 {
	r := t.row(key)
	if r < 0 {
		return 0
	}
	var total uint64
	for _, v := range t.vector(r, incVec) {
		total += v
	}
	if t.vecs == 2 {
		for _, v := range t.vector(r, decVec) {
			total -= v
		}
	}
	return total
}
