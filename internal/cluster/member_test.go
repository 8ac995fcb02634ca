package cluster

import (
	"testing"

	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
)

// TestFleetMemberIsHarnessRun: a one-member fleet is the harness run of
// the same spec, so its energy is bit-equal to harness.Run's — for
// MAGUS, UPS and a static pin, each with and without pcm-loss.
func TestFleetMemberIsHarnessRun(t *testing.T) {
	cfg := node.IntelA100()
	for _, g := range []struct {
		name    string
		factory harness.GovernorFactory
	}{
		{"magus", magusFactory},
		{"ups", func() governor.Governor { return governor.NewUPS(governor.UPSConfig{}) }},
		{"static", func() governor.Governor { return governor.NewStatic(cfg.UncoreMinGHz) }},
	} {
		for _, preset := range []string{"", "pcm-loss"} {
			spec := NodeSpec{Name: "m", Config: cfg, Workload: fleetProg("w", 1500), Factory: g.factory, Seed: 7}
			if preset != "" {
				spec.Faults, _ = faults.Preset(preset)
			}
			fleet, err := RunFleet([]NodeSpec{spec}, Options{})
			if err != nil {
				t.Fatalf("%s %q: fleet: %v", g.name, preset, err)
			}
			run, err := harness.Run(cfg, spec.Workload, g.factory(), harness.Options{Seed: spec.Seed, Faults: spec.Faults})
			if err != nil {
				t.Fatalf("%s %q: harness: %v", g.name, preset, err)
			}
			if fleet.EnergyJ != run.TotalEnergyJ() {
				t.Errorf("%s %q: fleet energy %v J != harness run %v J", g.name, preset, fleet.EnergyJ, run.TotalEnergyJ())
			}
		}
	}
}

// TestFleetUnmanagedMemberIgnoresMSRErrors: a member without a factory
// runs unmanaged and never touches the uncore limit, so a plan failing
// every MSR access from t=0 cannot fail it. The vendor-default governor
// can: its Attach sets the limit through the member's fault wrappers,
// which the second half checks so the first half proves something.
func TestFleetUnmanagedMemberIgnoresMSRErrors(t *testing.T) {
	plan := &faults.Plan{Name: "msr-dead", Faults: []faults.Fault{
		{Target: faults.TargetMSR, Class: faults.ClassError},
	}}
	spec := NodeSpec{Name: "m", Config: node.IntelA100(), Workload: fleetProg("w", 1000), Seed: 3, Faults: plan}
	res, err := RunFleet([]NodeSpec{spec}, Options{TopK: 1})
	if err != nil {
		t.Fatalf("unmanaged member failed under MSR write errors: %v", err)
	}
	if top := res.Top[0]; top.Governor != "default" || top.DoneS <= 0 {
		t.Errorf("unmanaged member summary %+v, want governor \"default\" and a completion time", top)
	}

	spec.Factory = func() governor.Governor { return governor.NewDefault() }
	if _, err := RunFleet([]NodeSpec{spec}, Options{}); err == nil {
		t.Error("governor.Default attached despite failing MSR writes: the plan injects nothing")
	}
}
