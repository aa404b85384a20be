package core

// MemoryTotal returns the switch SRAM consumed by all declared registers.
func (in *Instance) MemoryTotal() int { return in.sw.MemoryUsed() }
