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
	cfg, err := harness.SystemByName("Intel+A100")
	if err != nil {
		return NoiseStudyResult{}, err
	}
	prog := mustProgram(app)
	reps := opt.Repeats
	if reps < 1 {
		reps = 1
	}
	amps := NoiseAmplitudes()

	// Flat grid: the clean baseline's repeats first, then reps cells
	// per amplitude, all on one pool.
	specs := harness.RepeatSpecs(cfg, prog, defaultFactory, reps,
		harness.Options{Seed: opt.Seed, Obs: opt.Obs})
	for _, a := range amps {
		specs = append(specs, harness.RepeatSpecs(cfg, prog, magusFactoryFor(cfg.Name), reps,
			harness.Options{Seed: opt.Seed, PCMNoise: a, Obs: opt.Obs})...)
	}
	results, err := harness.RunBatch(specs, opt.Jobs)
	if err != nil {
		return NoiseStudyResult{}, err
	}
	base := harness.Reduce(results[:reps])
	out := NoiseStudyResult{App: app}
	for ai, a := range amps {
		res := harness.Reduce(results[reps*(1+ai) : reps*(2+ai)])
		out.Points = append(out.Points, NoisePoint{
			Amplitude:  a,
			Comparison: harness.Compare(base, res),
		})
	}
	return out, nil
}
