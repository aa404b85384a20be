package wire

// Live reports whether the set still has outstanding references (walk or
// messages). A live set must not be handed a new datagram.
func (s *ViewSet) Live() bool { return s.refs != 0 }
