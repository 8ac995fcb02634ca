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
	mc := magusConfigFor(cfg.Name)
	results, err := runGroups([]harness.RunSpec{
		spec(cfg, "numa_etl", policy(cfg.Name, "default"), opt),
		spec(cfg, "numa_etl", policy(cfg.Name, "magus"), opt),
		spec(cfg, "numa_etl", func() governor.Governor { return core.NewPerSocket(mc) }, opt),
	}, opt.Repeats, opt.Jobs)
	if err != nil {
		return NUMAStudyResult{}, err
	}
	return NUMAStudyResult{
		App:       "numa_etl",
		Global:    harness.Compare(results[0], results[1]),
		PerSocket: harness.Compare(results[0], results[2]),
	}, nil
}
