package faults

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/pcm"
)

func TestParseRejectsBadPlans(t *testing.T) {
	cases := []string{
		`{"faults": [{"target": "disk", "class": "error"}]}`,
		`{"faults": [{"target": "pcm", "class": "meltdown"}]}`,
		`{"faults": [{"target": "pcm", "class": "error", "onset_s": -1}]}`,
		`{"faults": [{"target": "pcm", "class": "error", "rate": 1.5}]}`,
		`{"faults": [{"target": "pcm", "class": "stall", "stall_ms": -5}]}`,
		`{"faults": [{"target": "nvml", "class": "stale"}]}`,
		`{"faults": [{"target": "pcm", "class": "error", "bogus_field": 1}]}`,
		`{"not json`,
	}
	for i, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: accepted %s", i, src)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse(strings.NewReader(`{
		"name": "x", "seed": 7,
		"faults": [
			{"target": "pcm", "class": "error", "onset_s": 2, "duration_s": 5, "rate": 0.5},
			{"target": "rapl", "class": "loss", "onset_s": 10}
		]}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Armed() || len(p.Faults) != 2 || p.Seed != 7 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Faults[1].Class != ClassLoss || p.Faults[1].Target != TargetRAPL {
		t.Fatalf("fault 1 = %+v", p.Faults[1])
	}
}

func TestPresets(t *testing.T) {
	names := PresetNames()
	if len(names) == 0 {
		t.Fatal("no presets")
	}
	for _, name := range names {
		p, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q vanished", name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if !p.Armed() || p.Name != name {
			t.Errorf("preset %q = %+v", name, p)
		}
	}
	if _, ok := Preset("no-such-preset"); ok {
		t.Fatal("unknown preset resolved")
	}
	if _, err := Load("chaos"); err != nil {
		t.Fatalf("Load preset: %v", err)
	}
	if _, err := Load("/no/such/plan.json"); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

func TestUnarmedPlanIsIdentity(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Armed() {
		t.Fatal("nil plan armed")
	}
	set := NewSet(nilPlan, nil)
	mon := pcm.New(func() float64 { return 0 })
	if got := set.WrapPCM(mon); got != pcm.Reader(mon) {
		t.Fatal("unarmed WrapPCM did not return inner")
	}
	space := msr.NewSpace(1, 2)
	if got := set.WrapDevice(space); got != msr.Device(space) {
		t.Fatal("unarmed WrapDevice did not return inner")
	}
	// A plan that targets only msr leaves pcm unwrapped too.
	p, _ := Preset("msr-flaky")
	set2 := NewSet(p, func() time.Duration { return 0 })
	if got := set2.WrapPCM(mon); got != pcm.Reader(mon) {
		t.Fatal("untargeted WrapPCM did not return inner")
	}
}

// clockAt builds a settable virtual clock.
func clockAt(d *time.Duration) func() time.Duration {
	return func() time.Duration { return *d }
}

func TestPCMErrorWindow(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Target: TargetPCM, Class: ClassError, OnsetS: 2, DurationS: 3},
	}}
	var now time.Duration
	set := NewSet(plan, clockAt(&now))
	var traffic float64
	wrapped := set.WrapPCM(pcm.New(func() float64 { return traffic }))

	read := func(at time.Duration) error {
		now = at
		traffic += 10
		_, err := wrapped.SystemMemoryThroughput(at)
		return err
	}
	if err := read(time.Second); err != nil {
		t.Fatalf("before onset: %v", err)
	}
	if err := read(3 * time.Second); !errors.Is(err, ErrInjected) {
		t.Fatalf("inside window: %v, want ErrInjected", err)
	}
	if err := read(6 * time.Second); err != nil {
		t.Fatalf("after window: %v", err)
	}
	if tally := set.Tally(); tally.Errors != 1 || tally.Total() != 1 {
		t.Fatalf("tally = %+v", tally)
	}
}

func TestPCMStallReportsLatency(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Target: TargetPCM, Class: ClassStall, OnsetS: 0, StallMS: 250},
	}}
	var now time.Duration
	set := NewSet(plan, clockAt(&now))
	wrapped := set.WrapPCM(pcm.New(func() float64 { return 0 })).(*PCM)
	if _, err := wrapped.SystemMemoryThroughput(0); err != nil {
		t.Fatal(err)
	}
	if got := wrapped.LastReadLatency(); got != 250*time.Millisecond {
		t.Fatalf("latency = %v, want 250ms", got)
	}
}

func TestPCMStaleFreezesValue(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Target: TargetPCM, Class: ClassStale, OnsetS: 5},
	}}
	var now time.Duration
	set := NewSet(plan, clockAt(&now))
	var traffic float64
	wrapped := set.WrapPCM(pcm.New(func() float64 { return traffic }))

	read := func(at time.Duration, add float64) float64 {
		now = at
		traffic += add
		v, err := wrapped.SystemMemoryThroughput(at)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	read(0, 0)                    // baseline
	good := read(time.Second, 30) // 30 GB/s
	if good != 30 {
		t.Fatalf("clean reading = %v", good)
	}
	// Inside the stale window the demand changes but the reading does
	// not.
	if got := read(6*time.Second, 500); got != good {
		t.Fatalf("stale reading = %v, want frozen %v", got, good)
	}
}

func TestPCMWildProducesInvalidValues(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Target: TargetPCM, Class: ClassWild, OnsetS: 0},
	}}
	var now time.Duration
	set := NewSet(plan, clockAt(&now))
	var traffic float64
	wrapped := set.WrapPCM(pcm.New(func() float64 { return traffic }))
	wrapped.SystemMemoryThroughput(0)
	sawInvalid := false
	for i := 1; i <= 8; i++ {
		now = time.Duration(i) * time.Second
		traffic += 30
		v, err := wrapped.SystemMemoryThroughput(now)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 10000 {
			sawInvalid = true
		}
	}
	if !sawInvalid {
		t.Fatal("wild fault never produced an invalid reading")
	}
}

func TestDeviceTargetsRAPLRegistersOnly(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Target: TargetRAPL, Class: ClassLoss, OnsetS: 0},
	}}
	var now time.Duration
	set := NewSet(plan, clockAt(&now))
	space := msr.NewSpace(1, 2)
	dev := set.WrapDevice(space)
	if _, err := dev.Read(0, msr.PkgEnergyStatus); !errors.Is(err, ErrInjected) {
		t.Fatalf("rapl register read: %v, want ErrInjected", err)
	}
	if _, err := dev.Read(0, msr.UncoreRatioLimit); err != nil {
		t.Fatalf("non-rapl register read failed: %v", err)
	}
	if err := dev.Write(0, msr.UncoreRatioLimit, 0x16); err != nil {
		t.Fatalf("non-rapl register write failed: %v", err)
	}
}

func TestDeviceStaleFreezesCounter(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Target: TargetMSR, Class: ClassStale, OnsetS: 5},
	}}
	var now time.Duration
	set := NewSet(plan, clockAt(&now))
	space := msr.NewSpace(1, 2)
	dev := set.WrapDevice(space)

	space.Poke(0, msr.FixedCtrInstRetired, 100)
	if v, _ := dev.Read(0, msr.FixedCtrInstRetired); v != 100 {
		t.Fatalf("clean read = %d", v)
	}
	now = 6 * time.Second
	space.Poke(0, msr.FixedCtrInstRetired, 900)
	if v, _ := dev.Read(0, msr.FixedCtrInstRetired); v != 100 {
		t.Fatalf("stale read = %d, want frozen 100", v)
	}
}

func TestDeterministicInjectionSequence(t *testing.T) {
	run := func() []error {
		plan := &Plan{Seed: 42, Faults: []Fault{
			{Target: TargetPCM, Class: ClassError, OnsetS: 0, Rate: 0.5},
		}}
		var now time.Duration
		set := NewSet(plan, clockAt(&now))
		wrapped := set.WrapPCM(pcm.New(func() float64 { return 0 }))
		var out []error
		for i := 0; i < 40; i++ {
			now = time.Duration(i) * time.Second
			_, err := wrapped.SystemMemoryThroughput(now)
			out = append(out, err)
		}
		return out
	}
	a, b := run(), run()
	injected := 0
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("run divergence at read %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] != nil {
			injected++
		}
	}
	if injected == 0 || injected == len(a) {
		t.Fatalf("rate 0.5 injected %d/%d", injected, len(a))
	}
}
