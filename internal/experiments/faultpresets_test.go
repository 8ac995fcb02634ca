package experiments

import (
	"testing"

	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
)

// TestEveryPresetReachesAReader runs each shipped fault preset under a
// governor that reads its target, on Intel+A100 srad, and checks that
// the preset fires and changes the run. A preset whose target nothing
// reads would fire nothing and leave every output bit-equal to the
// clean run.
func TestEveryPresetReachesAReader(t *testing.T) {
	// reader names the governor that consumes each preset's target:
	// MAGUS reads PCM and writes the uncore limit through the MSR
	// device; only UPS reads the RAPL energy counters.
	reader := map[string]string{
		"pcm-flaky":   "magus",
		"pcm-outage":  "magus",
		"pcm-loss":    "magus",
		"pcm-stall":   "magus",
		"pcm-stale":   "magus",
		"pcm-wild":    "magus",
		"msr-flaky":   "magus",
		"chaos":       "magus",
		"rapl-outage": "ups",
	}
	cfg, err := SystemByName("Intel+A100")
	if err != nil {
		t.Fatal(err)
	}
	factories := map[string]func() governor.Governor{
		"magus": magusFactoryFor(cfg.Name),
		"ups":   upsFactoryFor(cfg.Name),
	}
	prog := mustProgram("srad")
	opt := harness.Options{Seed: 1}

	specs := []harness.RunSpec{
		{Cfg: cfg, Prog: prog, Factory: factories["magus"], Opt: opt},
		{Cfg: cfg, Prog: prog, Factory: factories["ups"], Opt: opt},
	}
	clean := map[string]int{"magus": 0, "ups": 1}
	names := faults.PresetNames()
	baseline := make([]int, len(names))
	for i, name := range names {
		gov, ok := reader[name]
		if !ok {
			t.Fatalf("preset %q has no reader in the table", name)
		}
		delete(reader, name)
		baseline[i] = clean[gov]
		plan, _ := faults.Preset(name)
		specs = append(specs, harness.RunSpec{
			Cfg: cfg, Prog: prog, Factory: factories[gov],
			Opt: harness.Options{Seed: opt.Seed, Faults: plan},
		})
	}
	for name := range reader {
		t.Errorf("table names %q, which is not a preset", name)
	}

	results, err := harness.RunBatch(specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		res, base := results[2+i], results[baseline[i]]
		if res.FaultsInjected.Total() == 0 {
			t.Errorf("%s: no faults fired", name)
		}
		if res.RuntimeS == base.RuntimeS && res.PkgEnergyJ == base.PkgEnergyJ &&
			res.DramEnergyJ == base.DramEnergyJ && res.GPUEnergyJ == base.GPUEnergyJ {
			t.Errorf("%s: runtime and energy bit-equal to the clean run", name)
		}
	}
}
