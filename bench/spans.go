package main

import (
	"bufio"
	"fmt"
	"os"
)

// span is one interval at a layer boundary, recorded by the harness around
// its call into the layer. Spans of one op share its id; parent names the
// span that caused it.
type span struct {
	name, cat, parent string
	op                uint64
	lane              int32 // 0 = generator, i+1 = member i's pump
	start, dur        int64 // ns on the run clock
}

// spanLog keeps sampled spans in memory until the run ends.
type spanLog struct {
	every uint64 // sample one op in this many
	seen  uint64
	ops   uint64
	spans []span
}

func newSpanLog(every uint64) *spanLog {
	return &spanLog{every: every, spans: make([]span, 0, spanCap)}
}

// spanCap bounds the log (~25 MB): a long traced run stops sampling there.
const spanCap = 1 << 18

// sample reports whether the op being recorded is a sampled one.
func (l *spanLog) sample() bool {
	l.seen++
	return l.seen%l.every == 0 && len(l.spans) < spanCap-8
}

// nextOp returns a fresh op id.
func (l *spanLog) nextOp() uint64 {
	l.ops++
	return l.ops
}

func (l *spanLog) add(name, cat string, op uint64, lane int32, start, dur int64, parent string) {
	l.spans = append(l.spans, span{name: name, cat: cat, parent: parent, op: op, lane: lane, start: start, dur: dur})
}

// writeChrome writes the spans as Chrome trace-event JSON (complete events),
// loadable in chrome://tracing and ui.perfetto.dev.
func (l *spanLog) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range l.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"op":%d,"parent":%q}}`,
			s.name, s.cat, float64(s.start)/1e3, float64(s.dur)/1e3, s.lane, s.op, s.parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
