package pisa

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"swishmem/internal/netem"
	"swishmem/internal/sim"
)

func memSwitch(t testing.TB, mem int) *Switch {
	t.Helper()
	eng := sim.NewEngine(1)
	nw := netem.New(eng, netem.LinkProfile{})
	return New(eng, nw, Config{Addr: 1, MemoryBytes: mem})
}

func TestKeyTableBasics(t *testing.T) {
	sw := memSwitch(t, 1<<20)
	kt, err := sw.NewKeyTable("t", 4, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if kt.Row(1) != -1 || kt.Len() != 0 {
		t.Fatal("empty table has a row")
	}
	r := kt.RowFor(1)
	if r != 0 || kt.Row(1) != 0 || kt.Key(0) != 1 || kt.Len() != 1 {
		t.Fatalf("RowFor(1) = %d, Row(1) = %d, Len %d", r, kt.Row(1), kt.Len())
	}
	if c := kt.Cell(r); len(c) != 8 || !bytes.Equal(c, make([]byte, 8)) {
		t.Fatalf("new cell = %x, want 8 zero bytes", c)
	}
	copy(kt.Cell(r), "a")
	if kt.RowFor(1) != r || kt.Cell(r)[0] != 'a' {
		t.Fatal("RowFor of a known key did not return its row and cell")
	}
	if kt.Row(9) != -1 {
		t.Fatal("phantom key")
	}
	if kt.Bytes() != 64 {
		t.Fatalf("Bytes = %d, want 4 x 16", kt.Bytes())
	}
}

func TestKeyTableCapacity(t *testing.T) {
	sw := memSwitch(t, 1<<20)
	kt, _ := sw.NewKeyTable("t", 2, 16, 8)
	kt.RowFor(1)
	kt.RowFor(2)
	if r := kt.RowFor(3); r != -1 || kt.Row(3) != -1 || kt.Len() != 2 {
		t.Fatalf("insert past capacity: RowFor(3) = %d, Len %d", r, kt.Len())
	}
	// A key the table holds keeps its row at capacity.
	if kt.RowFor(1) != 0 || kt.RowFor(2) != 1 {
		t.Fatal("known key refused at capacity")
	}
}

func TestKeyTableMemoryAccounting(t *testing.T) {
	sw := memSwitch(t, 100)
	if _, err := sw.NewKeyTable("big", 100, 16, 8); err == nil {
		t.Fatal("over-budget key table accepted")
	}
	if sw.MemoryUsed() != 0 {
		t.Fatalf("refused table charged %d bytes", sw.MemoryUsed())
	}
	kt, err := sw.NewKeyTable("ok", 5, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sw.MemoryUsed() != 80 {
		t.Fatalf("used = %d", sw.MemoryUsed())
	}
	kt.Free()
	kt.Free()
	if sw.MemoryUsed() != 0 {
		t.Fatal("free did not release exactly once")
	}
}

func TestKeyTableValidation(t *testing.T) {
	sw := memSwitch(t, 1<<20)
	for _, bad := range [][3]int{{0, 8, 8}, {4, 0, 8}, {4, 8, 0}} {
		if _, err := sw.NewKeyTable("bad", bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("accepted %v", bad)
		}
	}
}

// A cell is its row's alone: writing one, or appending to its view, leaves
// every other cell as it was.
func TestKeyTableCellsDoNotAlias(t *testing.T) {
	sw := memSwitch(t, 1<<20)
	kt, _ := sw.NewKeyTable("t", 8, 8, 4)
	for k := uint64(0); k < 3; k++ {
		copy(kt.Cell(kt.RowFor(k)), []byte{byte(k), byte(k), byte(k), byte(k)})
	}
	c := kt.Cell(1)
	_ = append(c, 0xff)
	copy(c, "zzzz")
	for r, want := range [][]byte{{0, 0, 0, 0}, []byte("zzzz"), {2, 2, 2, 2}} {
		if got := kt.Cell(r); !bytes.Equal(got, want) {
			t.Fatalf("cell %d = %x, want %x", r, got, want)
		}
	}
}

// Sorted returns rows in key order across inserts made in any order.
func TestKeyTableSorted(t *testing.T) {
	sw := memSwitch(t, 1<<20)
	kt, _ := sw.NewKeyTable("t", 16, 8, 1)
	keysOf := func() []uint64 {
		var ks []uint64
		for _, r := range kt.Sorted() {
			ks = append(ks, kt.Key(int(r)))
		}
		return ks
	}
	for _, k := range []uint64{50, 10, 30} {
		kt.RowFor(k)
	}
	if got := keysOf(); !slices.Equal(got, []uint64{10, 30, 50}) {
		t.Fatalf("Sorted keys %v", got)
	}
	kt.RowFor(20)
	kt.RowFor(^uint64(0))
	if got := keysOf(); !slices.Equal(got, []uint64{10, 20, 30, 50, ^uint64(0)}) {
		t.Fatalf("Sorted keys after inserts %v", got)
	}
}

// keyTableModel is the oracle for a KeyTable: a map of key to row, the keys
// in first-touch order, a refusal past the capacity, and one byte slice per
// row.
type keyTableModel struct {
	limit int
	rows  map[uint64]int
	order []uint64
	cells [][]byte
}

func (m *keyTableModel) rowFor(key uint64, width int) int {
	if r, ok := m.rows[key]; ok {
		return r
	}
	if len(m.order) == m.limit {
		return -1
	}
	m.rows[key] = len(m.order)
	m.order = append(m.order, key)
	m.cells = append(m.cells, make([]byte, width))
	return len(m.order) - 1
}

func (m *keyTableModel) row(key uint64) int {
	if r, ok := m.rows[key]; ok {
		return r
	}
	return -1
}

// checkKeyTable asserts that kt holds exactly the model's rows and cells,
// that Sorted is the model's keys sorted (twice: the second call reuses the
// snapshot), and the index's own invariants: at most half full, and every
// key found at its row.
func checkKeyTable(t testing.TB, kt *KeyTable, m *keyTableModel) {
	t.Helper()
	if !slices.Equal(kt.keys, m.order) {
		t.Fatalf("rows %v, model %v", kt.keys, m.order)
	}
	if kt.Len() > kt.limit || kt.Len()*2 > len(kt.idx) {
		t.Fatalf("%d rows, capacity %d, %d buckets", kt.Len(), kt.limit, len(kt.idx))
	}
	for r, k := range m.order {
		if got := kt.Row(k); got != r {
			t.Fatalf("Row(%d) = %d, want %d", k, got, r)
		}
		if got := kt.Cell(r); !bytes.Equal(got, m.cells[r]) || cap(got) != kt.width {
			t.Fatalf("cell %d = %x (cap %d), model %x", r, got, cap(got), m.cells[r])
		}
	}
	want := slices.Clone(m.order)
	slices.Sort(want)
	for range 2 {
		sorted := kt.Sorted()
		if len(sorted) != len(want) {
			t.Fatalf("Sorted has %d rows, model %d", len(sorted), len(want))
		}
		for i, r := range sorted {
			if kt.Key(int(r)) != want[i] {
				t.Fatalf("Sorted[%d] is key %d, model %d", i, kt.Key(int(r)), want[i])
			}
		}
	}
}

// runKeyTableProgram interprets prog as a sequence of key-table operations —
// RowFor and Row of keys on both sides of the capacity, cell writes (each
// followed by an append to the written view), Sorted between inserts, full
// comparisons — and applies each to a KeyTable and to the model. Byte 0
// picks the capacity (1..766) and the cell width (1..8); the encoding is
// total, so the fuzzer and the property test share it. It returns the
// index's rehashes and the inserts refused.
func runKeyTableProgram(t testing.TB, prog []byte) (rehashes, refused int) {
	if len(prog) == 0 {
		return 0, 0
	}
	limit, width := 1+3*int(prog[0]), 1+int(prog[0]%8)
	kt, err := memSwitch(t, 1<<30).NewKeyTable("t", limit, 8+width, width)
	if err != nil {
		t.Fatal(err)
	}
	m := &keyTableModel{limit: limit, rows: map[uint64]int{}}
	next := func() uint64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return uint64(b)
	}
	key := func() uint64 { // 1024 keys: small, spread far apart, or at the top
		i := (next()<<8 | next()) % 1024
		switch i % 3 {
		case 0:
			return i / 3
		case 1:
			return 1<<40 + i*7919
		default:
			return ^uint64(0) - i
		}
	}
	for prog = prog[1:]; len(prog) > 0; {
		switch next() % 6 {
		case 0, 1:
			k, buckets := key(), len(kt.idx)
			got, want := kt.RowFor(k), m.rowFor(k, width)
			if got != want {
				t.Fatalf("RowFor(%d) = %d, model %d", k, got, want)
			}
			if want < 0 {
				refused++
			}
			if len(kt.idx) != buckets {
				rehashes++
			}
		case 2:
			if k := key(); kt.Row(k) != m.row(k) {
				t.Fatalf("Row(%d) = %d, model %d", k, kt.Row(k), m.row(k))
			}
		case 3:
			if len(m.order) == 0 {
				continue
			}
			r := int(next()<<8|next()) % len(m.order)
			c := kt.Cell(r)
			for i := range c {
				c[i] = byte(next())
			}
			copy(m.cells[r], c)
			_ = append(c, 0xff) // must not reach the next row's cell
		case 4:
			kt.Sorted()
		case 5:
			checkKeyTable(t, kt, m)
		}
	}
	checkKeyTable(t, kt, m)
	return rehashes, refused
}

// keyTablePrograms returns the deterministic random programs the property
// test runs and the fuzzer starts from.
func keyTablePrograms(count, ops int) [][]byte {
	progs := make([][]byte, count)
	for i := range progs {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		progs[i] = make([]byte, 1+4*ops)
		rng.Read(progs[i])
	}
	return progs
}

// Property: over random programs, a KeyTable is indistinguishable from a map
// of key to row that refuses a key past capacity, with one byte slice per
// row. The programs are meant to take the index through several rehashes
// and past capacity; make sure they do.
func TestKeyTableMatchesModel(t *testing.T) {
	maxRehashes, refused := 0, 0
	for _, prog := range keyTablePrograms(8, 2000) {
		rh, rf := runKeyTableProgram(t, prog)
		maxRehashes, refused = max(maxRehashes, rh), refused+rf
	}
	if maxRehashes < 4 || refused == 0 {
		t.Fatalf("programs reached %d rehashes and %d refusals; want >= 4 and > 0", maxRehashes, refused)
	}
}

// FuzzKeyTable feeds arbitrary programs to the same differential check.
func FuzzKeyTable(f *testing.F) {
	for _, prog := range keyTablePrograms(4, 300) {
		f.Add(prog)
	}
	f.Add([]byte{0, 0, 0, 1, 0, 0, 2, 3, 0, 0, 7, 5}) // capacity 1: insert, refuse, write the cell, compare
	f.Fuzz(func(t *testing.T, prog []byte) { runKeyTableProgram(t, prog) })
}
