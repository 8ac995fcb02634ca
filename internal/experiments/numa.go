package experiments

import (
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
)

// NUMAStudyResult compares single-domain MAGUS against the per-socket
// extension on a NUMA-imbalanced workload (numa_etl): the paper's
// runtime drives both sockets from one system-wide signal, so the
// quiet socket follows the busy one; per-socket scaling parks the
// quiet socket's uncore at minimum for the whole run.
type NUMAStudyResult struct {
	App       string
	Global    harness.Comparison
	PerSocket harness.Comparison
}

// NUMAStudy runs the comparison on Intel+A100.
func NUMAStudy(opt Options) (NUMAStudyResult, error) {
	opt, err := opt.normalize()
	if err != nil {
		return NUMAStudyResult{}, err
	}
	cfg, err := harness.SystemByName("Intel+A100")
	if err != nil {
		return NUMAStudyResult{}, err
	}
	prog := mustProgram("numa_etl")
	runOpt := harness.Options{Seed: opt.Seed, Obs: opt.Obs}

	mc := magusConfigFor(cfg.Name)
	results, err := runGroups([]runGroup{
		{cfg, prog, defaultFactory, runOpt},
		{cfg, prog, magusFactoryFor(cfg.Name), runOpt},
		{cfg, prog, func() governor.Governor { return core.NewPerSocket(mc) }, runOpt},
	}, opt.Repeats, opt.Jobs)
	if err != nil {
		return NUMAStudyResult{}, err
	}
	return NUMAStudyResult{
		App:       prog.Name,
		Global:    harness.Compare(results[0], results[1]),
		PerSocket: harness.Compare(results[0], results[2]),
	}, nil
}
