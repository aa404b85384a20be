package ips

// RemoveSignature retires a signature (writes a tombstone).
func (s *IPS) RemoveSignature(pattern []byte, done func(ok bool)) {
	s.Stats.Updates.Inc()
	s.reg.Write(SignatureKey(pattern), []byte{0}, done)
}
