package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// epoch anchors every timestamp of the traced run. mono reads only the
// monotonic clock, which costs half a time.Now, so the timers disturb
// the layers they measure less.
var epoch = time.Now()

func mono() time.Duration { return time.Since(epoch) }

// span is one timed region of the traced run.
type span struct {
	name       string
	start, end time.Duration // since epoch
	id, parent int64         // parent 0 = root
	run        string        // cell or session the span belongs to
	track      int           // trace viewer row
}

// spanLog keeps finished spans in memory; write saves them as Chrome
// trace-event JSON, which Perfetto and chrome://tracing open.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	ids   int64
}

func newSpanLog() *spanLog { return &spanLog{} }

// id allocates a span id.
func (l *spanLog) id() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ids++
	return l.ids
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since epoch
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves the spans to path as {"traceEvents": [...]} with one
// complete ("X") event per span.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	l.mu.Lock()
	for i, s := range l.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		err = enc.Encode(traceEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.track,
			Args: map[string]any{"id": s.id, "parent": s.parent, "run": s.run},
		})
		if err != nil {
			break
		}
	}
	l.mu.Unlock()
	fmt.Fprint(w, "]}\n")
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
