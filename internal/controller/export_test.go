package controller

import (
	"fmt"
	"slices"

	"swishmem/internal/netem"
)

// ChainEpoch returns the chain's current epoch (for tests/metrics).
func (c *Controller) ChainEpoch(reg uint16) uint32 {
	if cs, ok := c.chains[reg]; ok {
		return cs.epoch
	}
	return 0
}

// GroupSize returns the current membership size of reg's group.
func (c *Controller) GroupSize(reg uint16) int {
	if gs, ok := c.groups[reg]; ok {
		return len(gs.members)
	}
	return 0
}

// ReplaceChainMember performs a planned migration (§9: "migrating data as
// needed"): newM joins the chain of register reg exactly like a recovery
// spare (snapshot transfer + live-write forwarding), and once promoted the
// old member is removed from the chain. Unlike failure recovery, the old
// switch keeps serving throughout, so there is no availability gap. The
// returned error reports an unknown register, a busy chain (a join already
// in progress), or an old member that is not in the chain.
func (c *Controller) ReplaceChainMember(reg uint16, old netem.Addr, newM ChainMember) error {
	cs, ok := c.chains[reg]
	if !ok {
		return fmt.Errorf("controller: no chain for register %d", reg)
	}
	if cs.joining != nil {
		return fmt.Errorf("controller: chain %d already has a join in progress", reg)
	}
	if !slices.ContainsFunc(cs.members, at[ChainMember](old)) {
		return fmt.Errorf("controller: switch %d is not a member of chain %d", old, reg)
	}
	cs.retiring = old
	c.startJoin(cs, newM)
	return nil
}

// ChainEpoch returns the current chain epoch. Pump goroutine only.
func (l *Live) ChainEpoch() uint32 { return l.chainEpoch }

// Dead reports whether addr has been declared failed. Pump goroutine only.
func (l *Live) Dead(addr netem.Addr) bool { return l.dead[addr] }
