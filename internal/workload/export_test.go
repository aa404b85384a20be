package workload

import (
	"swishmem/internal/packet"
)

// UserOf extracts the user index from a rate-limiter packet (its source).
func UserOf(p *packet.Packet) uint32 {
	return packet.U32Addr(p.IP.Src) - clientBase
}
