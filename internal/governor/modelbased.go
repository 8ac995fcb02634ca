package governor

import (
	"fmt"
	"time"
)

// ModelBasedConfig parameterises the model-based comparator.
type ModelBasedConfig struct {
	// BWModel maps an uncore frequency (GHz) to deliverable system
	// memory bandwidth (GB/s). Model-based approaches (Sundriyal et
	// al.; FCUFS) obtain this from offline profiling of the platform —
	// the dependency MAGUS's model-free design avoids (§1, §7).
	BWModel func(ghz float64) float64
	// Headroom is the fractional bandwidth margin kept above the
	// observed demand when selecting a frequency.
	Headroom float64
	// StepGHz is the frequency-selection granularity.
	StepGHz float64
	// Interval and InvocationTime follow the same decision-period
	// model as the other runtimes.
	Interval       time.Duration
	InvocationTime time.Duration
	// Overhead model (one PCM read per cycle, like MAGUS).
	BusyCores  float64
	ExtraWatts float64
}

// DefaultModelBasedConfig returns a reasonable parameterisation; the
// bandwidth model must still be supplied (it is platform-specific).
func DefaultModelBasedConfig() ModelBasedConfig {
	return ModelBasedConfig{
		Headroom:       0.15,
		StepGHz:        0.1,
		Interval:       200 * time.Millisecond,
		InvocationTime: 100 * time.Millisecond,
		BusyCores:      0.3,
		ExtraWatts:     0.5,
	}
}

// ModelBased is the model-based uncore policy from the related-work
// family (§7): each cycle it measures memory throughput and uses an
// offline-profiled bandwidth model to select the lowest uncore
// frequency whose deliverable bandwidth still exceeds the demand plus
// headroom. It is exact when the model is exact and the signal is
// steady — and degrades when demand moves faster than one decision
// period, the regime MAGUS's prediction and high-frequency detection
// target.
type ModelBased struct {
	cfg ModelBasedConfig
	env *Env
	cur float64
}

// NewModelBased builds the governor; bwModel must be non-nil.
func NewModelBased(cfg ModelBasedConfig, bwModel func(ghz float64) float64) *ModelBased {
	def := DefaultModelBasedConfig()
	if cfg.Headroom <= 0 {
		cfg.Headroom = def.Headroom
	}
	if cfg.StepGHz <= 0 {
		cfg.StepGHz = def.StepGHz
	}
	if cfg.Interval <= 0 {
		cfg.Interval = def.Interval
	}
	if cfg.InvocationTime <= 0 {
		cfg.InvocationTime = def.InvocationTime
	}
	if cfg.BusyCores <= 0 {
		cfg.BusyCores = def.BusyCores
	}
	if cfg.ExtraWatts < 0 {
		cfg.ExtraWatts = def.ExtraWatts
	}
	cfg.BWModel = bwModel
	return &ModelBased{cfg: cfg}
}

// Name implements Governor.
func (*ModelBased) Name() string { return "model-based" }

// Interval implements Governor.
func (g *ModelBased) Interval() time.Duration { return g.cfg.Interval + g.cfg.InvocationTime }

// CurrentMaxGHz returns the frequency last selected.
func (g *ModelBased) CurrentMaxGHz() float64 { return g.cur }

// Attach implements Governor.
func (g *ModelBased) Attach(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if env.PCM == nil {
		return fmt.Errorf("governor: model-based policy requires a PCM monitor")
	}
	if g.cfg.BWModel == nil {
		return fmt.Errorf("governor: model-based policy requires a bandwidth model")
	}
	g.env = env
	g.cur = env.UncoreMaxGHz
	return env.SetUncoreMax(g.cur)
}

// Invoke implements Governor: select the lowest frequency whose
// modelled bandwidth covers the observed demand plus headroom.
func (g *ModelBased) Invoke(now time.Duration) time.Duration {
	g.env.charge(g.cfg.InvocationTime, g.cfg.BusyCores, g.cfg.ExtraWatts)
	thr, err := g.env.PCM.SystemMemoryThroughput(now)
	if err != nil {
		g.set(g.env.UncoreMaxGHz)
		return 0
	}
	need := thr * (1 + g.cfg.Headroom)
	target := g.env.UncoreMaxGHz
	for f := g.env.UncoreMinGHz; f < g.env.UncoreMaxGHz; f += g.cfg.StepGHz {
		if g.cfg.BWModel(f) >= need {
			target = f
			break
		}
	}
	g.set(target)
	return 0
}

func (g *ModelBased) set(ghz float64) { g.cur, _ = g.env.moveUncore(g.cur, ghz) }
