package experiments

import "github.com/spear-repro/magus/internal/harness"

// NoisePoint is one amplitude of the robustness sweep.
type NoisePoint struct {
	// Amplitude is the relative measurement-noise level: each PCM
	// reading is scaled by a deterministic pseudo-random factor in
	// [1-A, 1+A].
	Amplitude float64
	harness.Comparison
}

// NoiseStudyResult sweeps MAGUS under increasingly noisy throughput
// measurement on one application. Real PCM readings carry counter
// jitter and interference from co-running processes; the sweep shows
// how gracefully the runtime degrades when its single input signal
// gets worse.
type NoiseStudyResult struct {
	App    string
	Points []NoisePoint
}

// NoiseAmplitudes is the default sweep grid.
func NoiseAmplitudes() []float64 { return []float64{0, 0.05, 0.1, 0.2, 0.4} }

// NoiseStudy runs MAGUS on app (Intel+A100) across the noise grid,
// comparing each point against a clean-baseline default run.
func NoiseStudy(app string, opt Options) (NoiseStudyResult, error) {
	opt, err := opt.normalize()
	if err != nil {
		return NoiseStudyResult{}, err
	}
	if _, err := program(app); err != nil {
		return NoiseStudyResult{}, err
	}
	cfg, err := harness.SystemByName("Intel+A100")
	if err != nil {
		return NoiseStudyResult{}, err
	}
	// Flat grid: the clean baseline, then one MAGUS group per
	// amplitude.
	amps := NoiseAmplitudes()
	groups := []harness.RunSpec{spec(cfg, app, policy(cfg.Name, "default"), opt)}
	for _, a := range amps {
		g := spec(cfg, app, policy(cfg.Name, "magus"), opt)
		g.Opt.PCMNoise = a
		groups = append(groups, g)
	}
	results, err := runGroups(groups, opt.Repeats, opt.Jobs)
	if err != nil {
		return NoiseStudyResult{}, err
	}
	out := NoiseStudyResult{App: app}
	for ai, a := range amps {
		out.Points = append(out.Points, NoisePoint{
			Amplitude:  a,
			Comparison: harness.Compare(results[0], results[1+ai]),
		})
	}
	return out, nil
}
