package experiments

import (
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
)

// The ablation study quantifies the contribution of each MAGUS design
// choice (DESIGN.md §6) and places the model-based related-work
// approach next to them:
//
//   - magus:            the full runtime (reference);
//   - no-hifreq:        Algorithm 2 disabled — quantifies what the
//                       high-frequency override buys on fluttering
//                       workloads (srad);
//   - short-deriv:      derivative span 1 — quantifies what the longer
//                       memory-dynamics window buys (falls that land
//                       in monitoring gaps);
//   - warmup-max:       warm-up at maximum uncore (§3.3's literal
//                       reading) — trades early-burst performance for
//                       warm-up energy;
//   - model-based:      offline-profiled bandwidth model, minimal
//                       sufficient frequency (related work, §7);
//   - ups:              the UPScavenger baseline.

// AblationRow is one (variant, app) cell.
type AblationRow struct {
	Variant string
	App     string
	harness.Comparison
}

// AblationResult is the full ablation table on Intel+A100.
type AblationResult struct {
	Apps     []string
	Variants []string
	Rows     []AblationRow
}

// Get returns the comparison for (variant, app).
func (a AblationResult) Get(variant, app string) (harness.Comparison, bool) {
	for _, r := range a.Rows {
		if r.Variant == variant && r.App == app {
			return r.Comparison, true
		}
	}
	return harness.Comparison{}, false
}

// AblationApps returns the default application set for the study: a
// fluttering app, an epoch app, a bursty app and an init-heavy app.
func AblationApps() []string { return []string{"srad", "unet", "bfs", "gemm"} }

// ablationVariants builds the variant factories for a system.
func ablationVariants(system string) (names []string, factories []harness.GovernorFactory) {
	base := magusConfigFor(system)

	noHi := base
	noHi.DisableHighFreq = true

	shortDeriv := base
	shortDeriv.DerivLen = 1

	warmMax := base
	warmMax.WarmupAtMax = true

	cfg, _ := harness.SystemByName(system)
	bwModel := func(ghz float64) float64 {
		return float64(cfg.Sockets) * cfg.BWAt(ghz)
	}
	mbCfg := governor.DefaultModelBasedConfig()
	mbCfg.ExtraWatts = magusConfigFor(system).ExtraWatts

	// oracle: an upper bound on what uncore scaling can harvest —
	// exact platform model, 20 ms decisions, zero invocation cost.
	oracleCfg := governor.DefaultModelBasedConfig()
	oracleCfg.Interval = 20 * time.Millisecond
	oracleCfg.InvocationTime = time.Millisecond
	oracleCfg.BusyCores = 1e-9
	oracleCfg.Headroom = 0.02

	names = []string{"magus", "no-hifreq", "short-deriv", "warmup-max", "model-based", "ups", "duf", "oracle"}
	factories = []harness.GovernorFactory{
		func() governor.Governor { return core.New(base) },
		func() governor.Governor { return core.New(noHi) },
		func() governor.Governor { return core.New(shortDeriv) },
		func() governor.Governor { return core.New(warmMax) },
		func() governor.Governor { return governor.NewModelBased(mbCfg, bwModel) },
		policy(system, "ups"),
		policy(system, "duf"),
		func() governor.Governor { return governor.NewModelBased(oracleCfg, bwModel) },
	}
	return names, factories
}

// Ablation runs the variant × application matrix on Intel+A100 and
// reports each cell against the vendor-default baseline.
func Ablation(opt Options) (AblationResult, error) {
	opt, err := opt.normalize()
	if err != nil {
		return AblationResult{}, err
	}
	cfg, err := harness.SystemByName("Intel+A100")
	if err != nil {
		return AblationResult{}, err
	}
	apps := AblationApps()
	variants, factories := ablationVariants(cfg.Name)
	out := AblationResult{Apps: apps, Variants: variants}

	// One flat grid: per app, the baseline group followed by every
	// variant group. Group order fixes the output order, so the pool
	// can interleave cells freely.
	stride := 1 + len(variants)
	groups := make([]harness.RunSpec, 0, len(apps)*stride)
	for _, app := range apps {
		groups = append(groups, spec(cfg, app, policy(cfg.Name, "default"), opt))
		for _, f := range factories {
			groups = append(groups, spec(cfg, app, f, opt))
		}
	}
	results, err := runGroups(groups, opt.Repeats, opt.Jobs)
	if err != nil {
		return AblationResult{}, err
	}
	for ai, app := range apps {
		base := results[ai*stride]
		for i, variant := range variants {
			out.Rows = append(out.Rows, AblationRow{
				Variant:    variant,
				App:        app,
				Comparison: harness.Compare(base, results[ai*stride+1+i]),
			})
		}
	}
	return out, nil
}
