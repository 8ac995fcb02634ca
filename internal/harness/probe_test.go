package harness

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/spans"
)

// allSinksRun executes the all-sinks scenario: MAGUS on Intel+A100
// running the short span test program with every observation sink
// armed at once (observer, spans tracer, flight ring, telemetry
// traces) and every PCM read failing from 2 s to 3.5 s, so the sensor
// degrades, is lost and recovers inside the run. It returns the
// exporter bytes of every sink: metrics text, JSONL events, Perfetto
// spans and the flight ring's JSONL.
func allSinksRun(t *testing.T) (metrics, events, perfetto, flightJSONL []byte) {
	t.Helper()
	plan := &faults.Plan{Name: "pcm-outage-short", Seed: 11, Faults: []faults.Fault{
		{Target: faults.TargetPCM, Class: faults.ClassError, OnsetS: 2, DurationS: 1.5},
	}}
	var ev bytes.Buffer
	o := obs.New(obs.NewRegistry(), &ev)
	tr := spans.New(core.DefaultConfig().Window)
	ring := flight.NewRing(4096)
	_, err := Run(node.IntelA100(), spanTestProgram(), core.New(core.DefaultConfig()), Options{
		Seed: 11, Faults: plan, Obs: o, Spans: tr, Flight: ring,
		TraceInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pf, fl bytes.Buffer
	if err := tr.WritePerfetto(&pf); err != nil {
		t.Fatal(err)
	}
	if err := ring.DumpJSONL(&fl, "golden"); err != nil {
		t.Fatal(err)
	}
	return o.Registry().AppendText(nil), ev.Bytes(), pf.Bytes(), fl.Bytes()
}

// TestPowerCapTransparentToSinks: a power cap bounds package power and
// nothing else, so every sink must see the policy underneath it. Under
// pcm-loss the capped MAGUS run records the same sensor-health
// transitions in the flight ring, and traces the same sensor_health
// series, as the uncapped one.
func TestPowerCapTransparentToSinks(t *testing.T) {
	run := func(gov governor.Governor) (health []flight.Record, series []float64) {
		t.Helper()
		plan, ok := faults.Preset("pcm-loss")
		if !ok {
			t.Fatal("pcm-loss preset missing")
		}
		ring := flight.NewRing(4096)
		res, err := Run(node.IntelA100(), mustProg(t, "bfs"), gov, Options{
			Seed: 1, Faults: plan, Flight: ring, TraceInterval: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ring.Snapshot() {
			if r.Kind == flight.KindHealth {
				health = append(health, r)
			}
		}
		if s := res.Traces.Series("sensor_health"); s != nil {
			series = s.Values
		}
		return health, series
	}
	wantHealth, wantSeries := run(core.New(core.DefaultConfig()))
	gotHealth, gotSeries := run(governor.WithPowerCap(core.New(core.DefaultConfig()), 400))
	if len(wantHealth) == 0 || len(wantSeries) == 0 {
		t.Fatalf("uncapped run recorded %d health transitions and %d sensor_health samples; pcm-loss must degrade the sensor",
			len(wantHealth), len(wantSeries))
	}
	if !reflect.DeepEqual(gotHealth, wantHealth) {
		t.Errorf("capped run flight health records = %+v, want %+v", gotHealth, wantHealth)
	}
	if !reflect.DeepEqual(gotSeries, wantSeries) {
		t.Errorf("capped run sensor_health series has %d samples, want %d equal to the uncapped run's",
			len(gotSeries), len(wantSeries))
	}
}

// hookCounter is MAGUS with its decision-hook registrations counted.
type hookCounter struct {
	*core.MAGUS
	hooks int
}

func (h *hookCounter) OnDecision(fn func(core.Decision)) {
	h.hooks++
	h.MAGUS.OnDecision(fn)
}

// TestOneDecisionHook: a run registers one decision hook however many
// sinks consume decisions, none when no sink does, and a power cap
// does not hide the hook target. The probe exists exactly when a sink,
// the trace included, is armed.
func TestOneDecisionHook(t *testing.T) {
	prog := mustProg(t, "bfs")
	for _, tc := range []struct {
		name  string
		opt   func() Options
		hooks int
	}{
		{"no-sinks", func() Options { return Options{} }, 0},
		{"trace", func() Options { return Options{TraceInterval: 100 * time.Millisecond} }, 0},
		{"flight", func() Options { return Options{Flight: flight.NewRing(0)} }, 1},
		{"all-sinks", func() Options {
			return Options{
				Obs: obs.New(obs.NewRegistry(), nil), Spans: spans.New(core.DefaultConfig().Window),
				Flight: flight.NewRing(0), TraceInterval: 100 * time.Millisecond,
			}
		}, 1},
	} {
		for _, capped := range []bool{false, true} {
			hc := &hookCounter{MAGUS: core.New(core.DefaultConfig())}
			var gov governor.Governor = hc
			if capped {
				gov = governor.WithPowerCap(hc, 400)
			}
			st, err := NewSteppable(node.IntelA100(), prog, gov, tc.opt())
			if err != nil {
				t.Fatal(err)
			}
			if hc.hooks != tc.hooks {
				t.Errorf("%s capped=%v: %d decision hooks registered, want %d", tc.name, capped, hc.hooks, tc.hooks)
			}
			if (st.sinks != nil) != (tc.name != "no-sinks") {
				t.Errorf("%s capped=%v: probe present = %v", tc.name, capped, st.sinks != nil)
			}
		}
	}
}

// TestAllSinksGolden pins the bytes every sink exports when all of them
// observe one faulted run together. Regenerate with -update.
func TestAllSinksGolden(t *testing.T) {
	metrics, events, perfetto, fl := allSinksRun(t)
	checkGolden(t, filepath.Join("testdata", "allsinks_metrics.golden"), metrics)
	checkGolden(t, filepath.Join("testdata", "allsinks_events.golden"), events)
	checkGolden(t, filepath.Join("testdata", "allsinks_perfetto.golden.json"), perfetto)
	checkGolden(t, filepath.Join("testdata", "allsinks_flight.golden.jsonl"), fl)
}
