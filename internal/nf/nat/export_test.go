package nat

// FreePorts returns the local pool size (tests, metrics).
func (n *NAT) FreePorts() int { return len(n.freePorts) }
