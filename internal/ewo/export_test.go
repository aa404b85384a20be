package ewo

// PendingDeltas returns the number of deltas waiting in the open update.
func (n *Node) PendingDeltas() int { return n.held }
