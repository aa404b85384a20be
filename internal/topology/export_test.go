package topology

import (
	"sort"

	"swishmem/internal/netem"
)

// Heal re-adds a switch to the live set.
func (ing *Ingress) Heal(addr netem.Addr) {
	for _, a := range ing.live {
		if a == addr {
			return
		}
	}
	ing.live = append(ing.live, addr)
	sort.Slice(ing.live, func(i, j int) bool { return ing.live[i] < ing.live[j] })
}

// Live returns the live switch set.
func (ing *Ingress) Live() []netem.Addr { return append([]netem.Addr(nil), ing.live...) }
