// Fleet-scale study: the multi-node power-budget setting of §6.1
// scaled from a rack to a fleet. A mixed fleet (Intel+A100,
// Intel+4xA100 and Intel+Max1550 presets round-robin, catalog
// workloads staggered across members) runs under the vendor default,
// MAGUS and UPS, through the sharded cluster engine with
// aggregate-only telemetry — per-member traces for 10k nodes would be
// the memory bill the TelemetryAggregate mode exists to avoid. Each
// governor row reports fleet energy, the uncore waste attribution
// ledger, and time over a fleet power budget anchored at a fraction
// of the vendor default's observed peak.
package experiments

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/cluster"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/workload"
)

// FleetOptions sizes the fleet study. The zero value runs the
// CI-scale default: 1000 nodes, budget at 92 % of the default
// governor's peak, top-5 member summaries.
type FleetOptions struct {
	// Nodes is the fleet size (0 = 1000).
	Nodes int
	// Seed is the base seed; members derive their own (0 = 1).
	Seed int64
	// Shards forwards to cluster.Options.Shards (<= 0 = GOMAXPROCS);
	// output is byte-identical for any value.
	Shards int
	// SampleEvery is the aggregate-trace resolution (0 = 100 ms).
	SampleEvery time.Duration
	// BudgetFrac positions the fleet power budget as a fraction of the
	// vendor default's peak aggregate power (0 = 0.92).
	BudgetFrac float64
	// TopK is the number of heaviest-by-energy member summaries kept
	// per governor row (0 = 5).
	TopK int
	// Dist arms the fleet-wide distribution sketches
	// (cluster.Options.Dist): each row then carries the quantile
	// summaries of node power, uncore ratio, per-socket waste rate and
	// attained bandwidth across every member and tick of that row's
	// run.
	Dist bool
	// Obs, when set with Dist, receives each row's magus_fleet_*
	// distribution exposition. The histogram families accumulate
	// samples across the governor rows (the study-wide distribution);
	// the *_quantile gauges and the /fleet page reflect the most
	// recently finished row.
	Obs *obs.Observer
}

func (o FleetOptions) normalize() (FleetOptions, error) {
	if o.Nodes < 0 {
		return o, fmt.Errorf("experiments: negative fleet Nodes %d", o.Nodes)
	}
	if o.Nodes == 0 {
		o.Nodes = 1000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BudgetFrac < 0 || o.BudgetFrac >= 1 {
		return o, fmt.Errorf("experiments: fleet BudgetFrac %v outside (0, 1)", o.BudgetFrac)
	}
	if o.BudgetFrac == 0 {
		o.BudgetFrac = 0.92
	}
	if o.TopK == 0 {
		o.TopK = 5
	}
	return o, nil
}

// FleetCell is one governor's row of the study.
type FleetCell struct {
	// Governor labels the row: "default", "magus" or "ups".
	Governor string
	// EnergyJ is total fleet energy to the last member's completion.
	EnergyJ float64
	// PeakW / AvgW summarise the aggregate power trace.
	PeakW float64
	AvgW  float64
	// MakespanS is time until the whole fleet finished.
	MakespanS float64
	// OverBudgetFrac is the fraction of the makespan the aggregate
	// spent above the fleet budget (cluster.Result.TimeOverBudget).
	OverBudgetFrac float64
	// Waste is the fleet uncore attribution ledger; WasteBalanced
	// asserts baseline+useful+waste matches the independently
	// integrated total within the ulp budget.
	Waste         *spans.EnergyAttr
	WasteBalanced bool
	// Top holds the TopK heaviest members by energy.
	Top []cluster.MemberSummary
	// Dist is the row's fleet-wide distribution snapshot (nil unless
	// FleetOptions.Dist).
	Dist *cluster.FleetDist
}

// FleetResult is the full study.
type FleetResult struct {
	// Nodes is the fleet size; BudgetW the fleet power budget every
	// row's OverBudgetS is measured against.
	Nodes   int
	BudgetW float64
	Cells   []FleetCell
}

// fleetStudySpecs builds the mixed fleet for one governor row. The
// "default" row runs its members unmanaged (no factory); any other
// row gives each member the policy calibrated for its own preset.
func fleetStudySpecs(nodes int, seed int64, gov string) []cluster.NodeSpec {
	presets := []func() node.Config{node.IntelA100, node.Intel4A100, node.IntelMax1550}
	apps := workload.SingleGPU()
	specs := make([]cluster.NodeSpec, nodes)
	for i := range specs {
		cfg := presets[i%len(presets)]()
		specs[i] = cluster.NodeSpec{
			Config:   cfg,
			Workload: mustProgram(apps[i%len(apps)]),
			Seed:     seed + int64(i)*131,
		}
		if gov != "default" {
			specs[i].Factory = policy(cfg.Name, gov)
		}
	}
	return specs
}

// FleetStudy runs the fleet under each governor. The vendor-default
// row runs first: its peak anchors the budget the other rows are
// scored against. All rows run with the uncore waste ledger armed and
// aggregate-only telemetry.
func FleetStudy(opt FleetOptions) (FleetResult, error) {
	opt, err := opt.normalize()
	if err != nil {
		return FleetResult{}, err
	}
	res := FleetResult{Nodes: opt.Nodes}
	copt := cluster.Options{
		SampleEvery: opt.SampleEvery,
		Shards:      opt.Shards,
		Telemetry:   cluster.TelemetryAggregate,
		TopK:        opt.TopK,
		Waste:       true,
		Dist:        opt.Dist,
	}
	if opt.Dist {
		copt.Obs = opt.Obs
	}
	for _, gov := range []string{"default", "magus", "ups"} {
		r, err := cluster.RunFleet(fleetStudySpecs(opt.Nodes, opt.Seed, gov), copt)
		if err != nil {
			return FleetResult{}, fmt.Errorf("experiments: fleet %s row: %w", gov, err)
		}
		if gov == "default" {
			res.BudgetW = r.PeakW * opt.BudgetFrac
		}
		res.Cells = append(res.Cells, FleetCell{
			Governor:       gov,
			EnergyJ:        r.EnergyJ,
			PeakW:          r.PeakW,
			AvgW:           r.AvgW,
			MakespanS:      r.MakespanS,
			OverBudgetFrac: r.TimeOverBudget(res.BudgetW),
			Waste:          r.UncoreWaste,
			WasteBalanced:  r.WasteBalanced,
			Top:            r.Top,
			Dist:           r.Dist,
		})
	}
	return res, nil
}
