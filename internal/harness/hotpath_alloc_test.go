package harness

import (
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/workload"
)

// TestSteadyStateTickZeroAlloc pins the tentpole contract end to end on
// the engine NewSteppable builds (runner → node demand flow, node,
// telemetry recorder reserved for the nominal duration, MAGUS governor
// task): a steady-state engine tick heap-allocates nothing, both with
// the trace as the probe's only sink and with the flight ring armed,
// which is what every magusd serve session runs with.
func TestSteadyStateTickZeroAlloc(t *testing.T) {
	prog, ok := workload.ByName("unet")
	if !ok {
		t.Fatal("unknown workload unet")
	}
	for _, tc := range []struct {
		name string
		ring *flight.Ring
	}{
		{"no-sinks", nil},
		{"flight", flight.NewRing(flight.DefaultCap)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := NewSteppable(node.IntelA100(), prog, core.New(core.DefaultConfig()), Options{
				Seed: 1, TraceInterval: 100 * time.Millisecond, Flight: tc.ring,
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.sinks == nil || (st.sinks.flight == nil) != (tc.ring == nil) {
				t.Fatalf("probe present = %v with flight armed = %v; the trace alone arms a probe", st.sinks != nil, tc.ring != nil)
			}
			// Warm past MDFS warmup, the first trace samples, and the
			// phase transitions' first traversal so every lazily-grown
			// buffer has reached its working size.
			st.eng.RunFor(20 * time.Second)
			step := st.eng.Step()
			if allocs := testing.AllocsPerRun(2000, func() { st.eng.RunFor(step) }); allocs != 0 {
				t.Fatalf("steady-state engine tick allocates %v times per tick, want 0", allocs)
			}
			if st.src.Done() {
				t.Fatal("workload finished inside the measured window")
			}
		})
	}
}
