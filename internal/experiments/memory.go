package experiments

import (
	"fmt"

	"swishmem/internal/chain"
	"swishmem/internal/ewo"
	"swishmem/internal/netem"
	"swishmem/internal/pisa"
	"swishmem/internal/sim"
	"swishmem/internal/stats"
)

// Memory (E10) quantifies the §7 implementation sketch's SRAM overheads by
// allocating real protocol state on a switch model and reading back the
// accounting.
//
//   - SRO: per-key store plus the "register array with a sequence number
//     and an in-progress bit per entry"; §7 notes multiple keys can share a
//     group, "reducing state requirements further" — the sweep shows the
//     saving.
//   - EWO counters: "one register array for each switch in the replica
//     group", so SRAM grows linearly with group size; the table reports how
//     many entries fit in the 10 MB budget ("large replica groups with a
//     few tens of thousands of entries, or small replica groups with over a
//     million entries").
func Memory(seed int64) *Result {
	res := &Result{ID: "E10", Title: "§7: data-plane memory cost of protocol state"}
	eng := sim.NewEngine(seed)
	nw := netem.New(eng, netem.LinkProfile{})
	budget := 10 << 20

	// Fresh switch per measurement (huge budget so nothing fails).
	var addr netem.Addr
	mkSwitch := func() *pisa.Switch {
		addr++
		return pisa.New(eng, nw, pisa.Config{Addr: addr, MemoryBytes: 1 << 30})
	}

	tabS := stats.NewTable("E10a: SRO register SRAM per switch (8B values)",
		"Keys", "Seq groups", "Store bytes", "Seq+pending bytes", "Total", "Share of 10 MB")
	sharingHelps := true
	for _, keys := range []int{10_000, 100_000, 1_000_000} {
		var fullGroups int
		for i, groups := range []int{keys, keys / 16, keys / 256} {
			n, err := chain.NewNode(mkSwitch(), chain.Config{
				Reg: 1, Capacity: keys, ValueWidth: 8, Groups: groups,
			})
			if err != nil {
				panic(err)
			}
			store := keys * (8 + 8) // key + value accounting
			seq := n.MemoryBytes() - store
			total := n.MemoryBytes()
			tabS.AddRow(keys, groups, store, seq, total, float64(total)/float64(budget))
			if i == 0 {
				fullGroups = total
			} else if total >= fullGroups {
				sharingHelps = false
			}
		}
	}
	res.Tables = append(res.Tables, tabS)
	res.note("group sharing reduces SRO metadata SRAM: %v", sharingHelps)

	tabE := stats.NewTable("E10b: EWO counter SRAM vs replica group size (16B per key-slot + 4B change register per key)",
		"Group size", "Bytes for 10k keys", "Max keys in 10 MB")
	linear := true
	fits := map[int]int{}
	prevGroup, prevPerKey := 0, 0.0
	for _, group := range []int{2, 4, 8, 16, 32, 64} {
		n, err := ewo.NewNode(mkSwitch(), ewo.Config{
			Reg: 1, Capacity: 10_000, Kind: ewo.Counter, MaxGroup: group,
		})
		if err != nil {
			panic(err)
		}
		perKey := float64(n.MemoryBytes()) / 10_000
		fits[group] = int(float64(budget) / perKey)
		tabE.AddRow(group, n.MemoryBytes(), fits[group])
		if prevGroup > 0 && (perKey-prevPerKey)/float64(group-prevGroup) != 16 {
			linear = false
		}
		prevGroup, prevPerKey = group, perKey
	}
	res.Tables = append(res.Tables, tabE)
	res.note("EWO counter SRAM grows 16 B per key per group member: %v", linear)
	res.note(fmt.Sprintf("10 MB fits ~%dk keys at group=64 and ~%dk keys at group=2 — the §7 'tens of thousands ... over a million' span",
		fits[64]/1000, fits[2]/1000))

	// ERO saves the pending bit (§6.1).
	nS, _ := chain.NewNode(mkSwitch(), chain.Config{Reg: 1, Capacity: 100_000, ValueWidth: 8, Mode: chain.SRO})
	nE, _ := chain.NewNode(mkSwitch(), chain.Config{Reg: 1, Capacity: 100_000, ValueWidth: 8, Mode: chain.ERO})
	tabP := stats.NewTable("E10c: pending-bit saving (100k keys)", "Mode", "SRAM bytes")
	tabP.AddRow("SRO", nS.MemoryBytes())
	tabP.AddRow("ERO", nE.MemoryBytes())
	res.Tables = append(res.Tables, tabP)
	res.note("ERO eliminates pending-bit SRAM: %d < %d", nE.MemoryBytes(), nS.MemoryBytes())
	return res
}
