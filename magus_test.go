package magus_test

// Public-API tests: exercise the facade exactly as an external user
// would, including a custom governor written against the exported Env.

import (
	"testing"
	"time"

	magus "github.com/spear-repro/magus"
)

func TestQuickstartFlow(t *testing.T) {
	cfg := magus.IntelA100()
	prog, ok := magus.WorkloadByName("unet")
	if !ok {
		t.Fatal("unet missing from catalog")
	}
	base, err := magus.Run(cfg, prog, magus.NewDefaultGovernor(), magus.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := magus.Run(cfg, prog, magus.NewRuntime(magus.DefaultConfig()), magus.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := magus.Compare(base, tuned)
	if c.EnergySavingPct <= 0 {
		t.Fatalf("MAGUS energy saving = %.1f %%, want positive", c.EnergySavingPct)
	}
	if c.PerfLossPct > 5 {
		t.Fatalf("MAGUS perf loss = %.1f %%, want < 5", c.PerfLossPct)
	}
}

func TestWorkloadSets(t *testing.T) {
	if len(magus.Workloads()) < 24 {
		t.Fatalf("catalog too small: %d", len(magus.Workloads()))
	}
	for _, set := range [][]string{
		magus.SingleGPUWorkloads(), magus.AltisSYCLWorkloads(), magus.MultiGPUWorkloads(),
	} {
		for _, name := range set {
			if _, ok := magus.WorkloadByName(name); !ok {
				t.Errorf("set references unknown workload %q", name)
			}
		}
	}
}

func TestSystems(t *testing.T) {
	for _, cfg := range []magus.NodeConfig{magus.IntelA100(), magus.Intel4A100(), magus.IntelMax1550()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		n := magus.NewNode(cfg)
		if n.GPUCount() != len(cfg.GPUs) {
			t.Errorf("%s: GPU count mismatch", cfg.Name)
		}
	}
	if _, err := magus.SystemByName("Intel+A100"); err != nil {
		t.Error(err)
	}
}

// TestReproduceFigure4RejectsUnknownAppSet: only the three Intel
// systems have a Figure 4 application set; any other system is an
// error, not an empty figure.
func TestReproduceFigure4RejectsUnknownAppSet(t *testing.T) {
	for _, sys := range []string{"amd", "cpuonly"} {
		if _, err := magus.ReproduceFigure4(sys, magus.QuickExperiments()); err == nil {
			t.Errorf("ReproduceFigure4(%q) returned a nil error", sys)
		}
	}
}

func TestRunRepeatedTrimsOutliers(t *testing.T) {
	cfg := magus.IntelA100()
	prog, _ := magus.WorkloadByName("where")
	res, err := magus.RunRepeated(cfg, prog,
		func() magus.Governor { return magus.NewRuntime(magus.DefaultConfig()) },
		3, magus.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.RuntimeS <= 0 || res.TotalEnergyJ() <= 0 {
		t.Fatalf("aggregated result empty: %+v", res)
	}
	if res.Governor != "magus" || res.Workload != "where" {
		t.Fatalf("labels: %q/%q", res.Governor, res.Workload)
	}
}

// thresholdGovernor is a minimal custom policy built on the public
// API: max uncore when throughput exceeds a bound, min otherwise.
type thresholdGovernor struct {
	env   *magus.Env
	bound float64
}

func (g *thresholdGovernor) Name() string            { return "threshold" }
func (g *thresholdGovernor) Interval() time.Duration { return 300 * time.Millisecond }

func (g *thresholdGovernor) Attach(env *magus.Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	g.env = env
	return env.SetUncoreMax(env.UncoreMaxGHz)
}

func (g *thresholdGovernor) Invoke(now time.Duration) time.Duration {
	thr, err := g.env.PCM.SystemMemoryThroughput(now)
	if err != nil {
		g.env.SetUncoreMax(g.env.UncoreMaxGHz)
		return 0
	}
	if thr > g.bound {
		g.env.SetUncoreMax(g.env.UncoreMaxGHz)
	} else {
		g.env.SetUncoreMax(g.env.UncoreMinGHz)
	}
	return 0
}

func TestCustomGovernor(t *testing.T) {
	cfg := magus.IntelA100()
	prog, _ := magus.WorkloadByName("bfs")
	gov := &thresholdGovernor{bound: 100}
	res, err := magus.Run(cfg, prog, gov, magus.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	base, err := magus.Run(cfg, prog, magus.NewDefaultGovernor(), magus.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c := magus.Compare(base, res)
	if c.PowerSavingPct <= 0 {
		t.Fatalf("custom governor saved no power: %+v", c)
	}
}

func TestTracesExposed(t *testing.T) {
	cfg := magus.IntelA100()
	prog, _ := magus.WorkloadByName("srad")
	res, err := magus.Run(cfg, prog, magus.NewRuntime(magus.DefaultConfig()),
		magus.Options{Seed: 1, TraceInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces == nil {
		t.Fatal("traces missing")
	}
	for _, name := range []string{"mem_gbs", "uncore_ghz", "cpu_power_w"} {
		s := res.Traces.Series(name)
		if s == nil || s.Len() < 50 {
			t.Errorf("trace %q missing or short", name)
		}
	}
}

func TestRuntimeDecisionHook(t *testing.T) {
	rt := magus.NewRuntime(magus.DefaultConfig())
	var decisions []magus.Decision
	rt.OnDecision(func(d magus.Decision) { decisions = append(decisions, d) })
	cfg := magus.IntelA100()
	prog, _ := magus.WorkloadByName("gemm")
	if _, err := magus.Run(cfg, prog, rt, magus.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if len(decisions) < 20 {
		t.Fatalf("only %d decisions traced", len(decisions))
	}
	s := rt.Stats()
	if s.Invocations == 0 || s.MSRWrites == 0 {
		t.Fatalf("stats empty: %+v", s)
	}
}
