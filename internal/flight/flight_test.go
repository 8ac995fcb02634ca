package flight

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRingRetainsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 10; i++ {
		r.Record(float64(i), KindDecision, "d", float64(i), 0, 0)
	}
	if r.Len() != 4 {
		t.Fatalf("len = %d, want 4", r.Len())
	}
	if r.Recorded() != 10 || r.Dropped() != 6 {
		t.Fatalf("recorded/dropped = %d/%d, want 10/6", r.Recorded(), r.Dropped())
	}
	snap := r.Snapshot()
	for i, rec := range snap {
		want := uint64(7 + i)
		if rec.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (oldest-first, newest retained)", i, rec.Seq, want)
		}
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(8)
	r.Record(0.1, KindMark, "start", 0, 0, 0)
	r.Record(0.2, KindHealth, "degraded", 1, 2, 0)
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Tag != "start" || snap[1].Tag != "degraded" {
		t.Fatalf("snapshot = %+v", snap)
	}
	if r.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", r.Dropped())
	}
}

func TestNilRingSafe(t *testing.T) {
	var r *Ring
	r.Record(1, KindPanic, "x", 0, 0, 0)
	if r.Len() != 0 || r.Recorded() != 0 || r.Dropped() != 0 || r.Snapshot() != nil {
		t.Fatal("nil ring must be inert")
	}
	var buf bytes.Buffer
	if err := r.DumpJSONL(&buf, "nil"); err != nil {
		t.Fatalf("nil dump: %v", err)
	}
}

func TestDumpJSONLParses(t *testing.T) {
	r := NewRing(3)
	r.Record(0.1, KindDecision, "uncore_set", 1.8, 0, 0)
	r.Record(0.2, KindFault, "pcm_stale", 1, 0, 0)
	r.Record(0.3, KindPanic, "panic", 0, 0, 0)
	r.Record(0.4, KindMark, "dump", 0, 0, 0)
	var buf bytes.Buffer
	if err := r.DumpJSONL(&buf, "test-session"); err != nil {
		t.Fatalf("dump: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 retained
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), buf.String())
	}
	var hdr map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header parse: %v", err)
	}
	if hdr["flight"] != "v1" || hdr["dropped"] != float64(1) || hdr["source"] != "test-session" {
		t.Fatalf("header = %v", hdr)
	}
	for _, ln := range lines[1:] {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("record parse: %v (%s)", err, ln)
		}
		if rec["kind"] == "" || rec["seq"] == nil {
			t.Fatalf("record missing fields: %s", ln)
		}
	}
	// Last retained record is the dump mark; the panic precedes it.
	if !strings.Contains(lines[2], `"kind":"panic"`) {
		t.Fatalf("expected panic record at line 3: %s", lines[2])
	}
}

func TestDumpPerfettoParses(t *testing.T) {
	r := NewRing(2)
	r.Record(1.5, KindDecision, "uncore_set", 2.2, 1, 0)
	var buf bytes.Buffer
	if err := r.DumpPerfetto(&buf, "s-1"); err != nil {
		t.Fatalf("dump: %v", err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("perfetto parse: %v", err)
	}
	var found bool
	for _, ev := range tr.TraceEvents {
		if ev["name"] == "uncore_set" && ev["ph"] == "i" && ev["ts"] == 1.5e6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("instant event not found in %s", buf.String())
	}
}

func TestConcurrentRecordAndDump(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			r.Record(float64(i), KindDecision, "d", float64(i), 0, 0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.DumpJSONL(&buf, "race"); err != nil {
				t.Errorf("dump: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	// Every snapshot must be contiguous in Seq.
	snap := r.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq != snap[i-1].Seq+1 {
			t.Fatalf("non-contiguous snapshot at %d: %d then %d", i, snap[i-1].Seq, snap[i].Seq)
		}
	}
}

func TestRecordZeroAllocWhenFull(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 16; i++ {
		r.Record(float64(i), KindMark, "fill", 0, 0, 0)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(1, KindDecision, "uncore_set", 1.2, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates on a full ring: %v allocs/op", allocs)
	}
}

// BenchmarkHotPathFlightRecord pins the per-event recording cost;
// cmd/benchgate holds it to 0 allocs/op via BENCH.json.
func BenchmarkHotPathFlightRecord(b *testing.B) {
	r := NewRing(DefaultCap)
	b.ReportAllocs()
	// Exclude NewRing's allocations: at -benchtime=1x the CI gate
	// divides by N=1, so setup cost must not count as per-op.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Record(float64(i), KindDecision, "uncore_set", 1.6, 0, 0)
	}
}
