package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteJSON renders the snapshot as a stable JSON document (samples sorted,
// field order fixed by the struct tags).
func (s Snapshot) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"samples\":[")
	for i, sm := range s.Samples {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString("\n{\"name\":")
		bw.WriteString(strconv.Quote(sm.Name))
		if sm.Labels != "" {
			bw.WriteString(",\"labels\":")
			bw.WriteString(strconv.Quote(sm.Labels))
		}
		bw.WriteString(",\"kind\":")
		bw.WriteString(strconv.Quote(sm.Kind))
		bw.WriteString(",\"value\":")
		bw.WriteString(formatValue(sm.Value))
		if sm.Kind == KindHist.String() {
			fmt.Fprintf(bw, ",\"mean\":%s,\"p50\":%s,\"p99\":%s,\"max\":%s",
				formatValue(sm.Mean), formatValue(sm.P50), formatValue(sm.P99), formatValue(sm.Max))
		}
		bw.WriteByte('}')
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// SetEnabled pauses or resumes recording without discarding the ring.
func (t *Tracer) SetEnabled(on bool) { t.on = on }

// Dropped returns how many events have been overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	if t.next < uint64(len(t.buf)) {
		return 0
	}
	return t.next - uint64(len(t.buf))
}
