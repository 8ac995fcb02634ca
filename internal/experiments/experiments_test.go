package experiments

// Integration tests assert the paper's qualitative claims (§6) hold in
// the reproduction. Bounds are deliberately loose enough to survive
// model recalibration but tight enough that a broken runtime or
// simulator fails loudly.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/telemetry"
)

func TestFigure1UncoreStaysPinned(t *testing.T) {
	res, err := Figure1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Uncore: flat at the 2.2 GHz maximum for (almost) the whole run —
	// the paper's motivating observation.
	unc := res.UncoreGHz
	if unc.Len() < 100 {
		t.Fatalf("uncore trace too short: %d", unc.Len())
	}
	if min := seriesMinF(unc); min < 2.15 {
		t.Fatalf("uncore dipped to %.2f GHz under the default governor", min)
	}
	// Core frequency and GPU clock are dynamic: they must span a wide
	// range as the workload alternates.
	core0 := res.CoreGHz[0]
	if spread := core0.Max() - seriesMinF(core0); spread < 0.5 {
		t.Fatalf("core frequency barely moved (spread %.2f GHz)", spread)
	}
	gpu := res.GPUClockMHz
	if spread := gpu.Max() - seriesMinF(gpu); spread < 300 {
		t.Fatalf("GPU clock barely moved (spread %.0f MHz)", spread)
	}
}

func seriesMinF(s *telemetry.Series) float64 {
	if s.Len() == 0 {
		return 0
	}
	min := s.Values[0]
	for _, v := range s.Values[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

func TestFigure2PowerPerformanceTradeoff(t *testing.T) {
	res, err := Figure2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// ≈47 s at max uncore, ≈57 s at min (21 % stretch); ≈82 W package
	// power reduction (§2, Figure 2).
	if res.MaxUncore.RuntimeS < 44 || res.MaxUncore.RuntimeS > 50 {
		t.Fatalf("UNet max-uncore runtime = %.1f s, want ≈47", res.MaxUncore.RuntimeS)
	}
	if res.RuntimeIncreasePct < 12 || res.RuntimeIncreasePct > 30 {
		t.Fatalf("runtime increase = %.1f %%, want ≈21", res.RuntimeIncreasePct)
	}
	if res.PkgPowerDropW < 60 || res.PkgPowerDropW > 105 {
		t.Fatalf("package power drop = %.1f W, want ≈82", res.PkgPowerDropW)
	}
	if res.CPUPowerMax.Mean() <= res.CPUPowerMin.Mean() {
		t.Fatal("per-socket power trace ordering inverted")
	}
}

func TestFigure4aIntelA100(t *testing.T) {
	res, err := Figure4("Intel+A100", Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 20 {
		t.Fatalf("Figure 4a covers %d apps, want 20", len(res.Apps))
	}
	// Headline claims: performance loss below ~5 %, energy savings
	// positive everywhere, best saving in the tens of percent.
	if worst := res.MaxPerfLoss(); worst > 6 {
		t.Fatalf("MAGUS worst-case perf loss = %.1f %%, want < ≈5", worst)
	}
	for _, a := range res.Apps {
		if a.MAGUS.EnergySavingPct < -0.5 {
			t.Errorf("%s: MAGUS energy saving negative (%.1f %%)", a.App, a.MAGUS.EnergySavingPct)
		}
		if a.MAGUS.PowerSavingPct < 0 {
			t.Errorf("%s: MAGUS power saving negative (%.1f %%)", a.App, a.MAGUS.PowerSavingPct)
		}
	}
	if best := res.MaxEnergySaving(); best < 15 || best > 35 {
		t.Fatalf("best MAGUS energy saving = %.1f %%, want ≈20–30 (paper: up to 27)", best)
	}
	// MAGUS outperforms UPS on aggregate energy savings (Fig 4a).
	var magusSum, upsSum float64
	for _, a := range res.Apps {
		magusSum += a.MAGUS.EnergySavingPct
		upsSum += a.UPS.EnergySavingPct
	}
	if magusSum <= upsSum {
		t.Fatalf("aggregate energy savings: MAGUS %.1f vs UPS %.1f, want MAGUS ahead", magusSum, upsSum)
	}
}

func TestFigure4bIntelMax1550(t *testing.T) {
	res, err := Figure4("Intel+Max1550", Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 11 {
		t.Fatalf("Figure 4b covers %d apps, want 11", len(res.Apps))
	}
	if worst := res.MaxPerfLoss(); worst > 6 {
		t.Fatalf("MAGUS worst-case perf loss = %.1f %%", worst)
	}
	// All MAGUS savings positive. The paper's UPS goes energy-negative
	// for some apps here because its overhead outweighs its savings; in
	// this reproduction the same mechanism erodes UPS to near-zero for
	// at least one app (it stays marginally positive — see
	// EXPERIMENTS.md for the documented delta), and UPS must fall
	// clearly behind MAGUS overall.
	upsEroded := false
	var magusSum, upsSum float64
	for _, a := range res.Apps {
		if a.MAGUS.EnergySavingPct < -0.5 {
			t.Errorf("%s: MAGUS energy saving negative (%.1f %%)", a.App, a.MAGUS.EnergySavingPct)
		}
		if a.UPS.EnergySavingPct < 3 {
			upsEroded = true
		}
		magusSum += a.MAGUS.EnergySavingPct
		upsSum += a.UPS.EnergySavingPct
	}
	if !upsEroded {
		t.Error("expected UPS energy savings to be eroded (< 3 %) on at least one Max1550 app")
	}
	if magusSum <= upsSum {
		t.Errorf("aggregate Max1550 energy savings: MAGUS %.1f vs UPS %.1f, want MAGUS ahead", magusSum, upsSum)
	}
}

func TestFigure4cMultiGPU(t *testing.T) {
	a100, err := Figure4("Intel+A100", Quick())
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Figure4("Intel+4A100", Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Apps) != 5 {
		t.Fatalf("Figure 4c covers %d apps, want 5", len(multi.Apps))
	}
	// Energy savings shrink with more GPUs (fixed CPU complex, 4×
	// idle-heavy boards): compare unet across systems.
	var unetSingle, unetMulti float64
	for _, a := range a100.Apps {
		if a.App == "unet" {
			unetSingle = a.MAGUS.EnergySavingPct
		}
	}
	for _, a := range multi.Apps {
		if a.App == "unet" {
			unetMulti = a.MAGUS.EnergySavingPct
		}
	}
	if unetMulti >= unetSingle {
		t.Fatalf("unet energy saving multi-GPU (%.1f %%) should be below single-GPU (%.1f %%)",
			unetMulti, unetSingle)
	}
	// CPU power savings stay substantial even when energy savings are
	// modest (the paper reports ≈21 % for GROMACS).
	for _, a := range multi.Apps {
		if a.App == "gromacs" && (a.MAGUS.PowerSavingPct < 8 || a.MAGUS.PowerSavingPct > 35) {
			t.Errorf("gromacs multi-GPU power saving = %.1f %%, want ≈10–30", a.MAGUS.PowerSavingPct)
		}
	}
}

func TestFigure5SRADThroughput(t *testing.T) {
	res, err := Figure5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// The min pin cannot reach the peak throughput the max pin serves.
	if res.MinUncore.Max() >= res.MaxUncore.Max()*0.8 {
		t.Fatalf("min-uncore peak %.0f vs max-uncore peak %.0f: clipping not visible",
			res.MinUncore.Max(), res.MaxUncore.Max())
	}
	// MAGUS reaches within 10 % of the baseline's peak throughput.
	if res.MAGUS.Max() < res.MaxUncore.Max()*0.9 {
		t.Fatalf("MAGUS peak throughput %.0f well below baseline %.0f",
			res.MAGUS.Max(), res.MaxUncore.Max())
	}
	// §6.2 headline: MAGUS saves energy with a small slowdown; UPS
	// saves more CPU power but slows down more.
	m, u := res.MAGUSvsDefault, res.UPSvsDefault
	if m.EnergySavingPct < 2 {
		t.Fatalf("MAGUS SRAD energy saving = %.1f %%, want clearly positive", m.EnergySavingPct)
	}
	if m.PerfLossPct > 5 {
		t.Fatalf("MAGUS SRAD perf loss = %.1f %%, want < 5", m.PerfLossPct)
	}
	if u.PowerSavingPct <= m.PowerSavingPct {
		t.Fatalf("power savings: UPS %.1f vs MAGUS %.1f, paper has UPS ahead on SRAD",
			u.PowerSavingPct, m.PowerSavingPct)
	}
	if u.PerfLossPct <= m.PerfLossPct {
		t.Fatalf("perf loss: UPS %.1f vs MAGUS %.1f, paper has UPS worse on SRAD",
			u.PerfLossPct, m.PerfLossPct)
	}
}

func TestFigure6UncoreTraces(t *testing.T) {
	res, err := Figure6(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: pinned at max.
	if seriesMinF(res.Default) < 2.15 {
		t.Fatalf("default governor let the uncore drop to %.2f", seriesMinF(res.Default))
	}
	// MAGUS: visits both extremes and pins max during the flutter
	// (high-frequency overrides recorded).
	if seriesMinF(res.MAGUS) > 0.9 {
		t.Fatalf("MAGUS never scaled down (min %.2f GHz)", seriesMinF(res.MAGUS))
	}
	if res.MAGUS.Max() < 2.1 {
		t.Fatalf("MAGUS never returned to max (max %.2f GHz)", res.MAGUS.Max())
	}
	if res.MAGUSHighFreqOverrides == 0 {
		t.Fatal("high-frequency detector never engaged on SRAD")
	}
	// UPS steps to intermediate frequencies (gradual scaling).
	sawIntermediate := false
	for _, v := range res.UPS.Values {
		if v > 1.1 && v < 2.0 {
			sawIntermediate = true
			break
		}
	}
	if !sawIntermediate {
		t.Fatal("UPS trace shows no intermediate frequencies")
	}
}

func TestFigure7ParetoFrontier(t *testing.T) {
	res, err := Figure7("srad", Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 35 {
		t.Fatalf("sweep has %d points, want ≈40", len(res.Points))
	}
	if res.Default < 0 {
		t.Fatal("default threshold set missing from the sweep")
	}
	var frontier int
	for _, p := range res.Points {
		if p.OnFrontier {
			frontier++
		}
	}
	if frontier == 0 {
		t.Fatal("empty Pareto frontier")
	}
	// The recommended defaults sit on or close to the frontier (§6.4).
	if d := res.DefaultDistance(); d > 0.05 {
		t.Fatalf("default thresholds are %.3f (normalised) from the frontier, want ≤ 0.05", d)
	}
}

func TestTable1Jaccard(t *testing.T) {
	res, err := Table1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 21 {
		t.Fatalf("Table 1 has %d rows, want 21", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Jaccard < 0 || r.Jaccard > 1 {
			t.Fatalf("%s: Jaccard %.2f out of range", r.App, r.Jaccard)
		}
	}
	// Shape of the table: strong predictions for the epoch/steady apps,
	// weak for the short init-burst apps (paper: fdtd2d 0.40 lowest).
	for _, app := range []string{"bfs", "unet", "lammps", "gromacs", "laghos"} {
		if j, _ := res.Get(app); j < 0.8 {
			t.Errorf("%s: Jaccard %.2f, want ≥ 0.8", app, j)
		}
	}
	lowApps := []string{"fdtd2d", "cfd_double", "particlefilter_float", "gemm"}
	lowCount := 0
	for _, app := range lowApps {
		if j, _ := res.Get(app); j < 0.8 {
			lowCount++
		}
	}
	if lowCount < 2 {
		t.Errorf("expected ≥2 of %v below 0.8 (init-burst misses), got %d", lowApps, lowCount)
	}
	if m := res.Mean(); m < 0.6 {
		t.Fatalf("mean Jaccard %.2f, want ≥ 0.6", m)
	}
}

func TestTable2Overheads(t *testing.T) {
	// Two idle minutes keep the test quick; overhead ratios are
	// duration-independent.
	res, err := Table2(2*time.Minute, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("Table 2 has %d rows, want 4", len(res.Rows))
	}
	for _, sys := range []string{"Intel+A100", "Intel+Max1550"} {
		magus, ok1 := res.Get(sys, "magus")
		ups, ok2 := res.Get(sys, "ups")
		if !ok1 || !ok2 {
			t.Fatalf("%s rows missing", sys)
		}
		// MAGUS ≈1 % power overhead, UPS several ×, 0.1 s vs 0.3 s
		// invocations (§6.5, Table 2).
		if magus.PowerOverheadPct < 0.3 || magus.PowerOverheadPct > 2.5 {
			t.Errorf("%s: MAGUS power overhead %.2f %%, want ≈1", sys, magus.PowerOverheadPct)
		}
		if ups.PowerOverheadPct < 3 || ups.PowerOverheadPct > 11 {
			t.Errorf("%s: UPS power overhead %.2f %%, want ≈5–8", sys, ups.PowerOverheadPct)
		}
		if ups.PowerOverheadPct <= magus.PowerOverheadPct*2 {
			t.Errorf("%s: UPS overhead %.2f %% not clearly above MAGUS %.2f %%",
				sys, ups.PowerOverheadPct, magus.PowerOverheadPct)
		}
		if magus.InvocationS < 0.05 || magus.InvocationS > 0.15 {
			t.Errorf("%s: MAGUS invocation %.2f s, want ≈0.1", sys, magus.InvocationS)
		}
		if ups.InvocationS < 0.2 || ups.InvocationS > 0.4 {
			t.Errorf("%s: UPS invocation %.2f s, want ≈0.3", sys, ups.InvocationS)
		}
	}
	// The paper's cross-system observation: UPS costs more on Max1550.
	upsA100, _ := res.Get("Intel+A100", "ups")
	upsMax, _ := res.Get("Intel+Max1550", "ups")
	if upsMax.PowerOverheadPct <= upsA100.PowerOverheadPct {
		t.Errorf("UPS overhead on Max1550 (%.2f %%) should exceed A100 (%.2f %%)",
			upsMax.PowerOverheadPct, upsA100.PowerOverheadPct)
	}
}

func TestFigure7SecondApplication(t *testing.T) {
	// The paper presents the sweep for two applications; unet is the
	// epoch-structured case.
	res, err := Figure7("unet", Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.Default < 0 {
		t.Fatal("default set missing")
	}
	if d := res.DefaultDistance(); d > 0.05 {
		t.Fatalf("unet: default distance to frontier = %.3f", d)
	}
}

// TestFigure4RejectsSystemsWithoutAppSet: Figure 4 covers the three
// Intel systems only. Any other system used to return an empty result
// with a nil error.
func TestFigure4RejectsSystemsWithoutAppSet(t *testing.T) {
	for _, sys := range []string{"amd", "cpuonly", "AMD+MI250"} {
		res, err := Figure4(sys, Quick())
		if err == nil {
			t.Errorf("Figure4(%q) = %d apps, nil error; want an error", sys, len(res.Apps))
		}
	}
}

// TestTable2Observed: Table 2 honours Options.Obs. Every idle cell is
// an observed run, and observing leaves the table's bytes unchanged.
func TestTable2Observed(t *testing.T) {
	window := 20 * time.Second
	plain, err := Table2(window, Quick())
	if err != nil {
		t.Fatal(err)
	}
	opt := Quick()
	opt.Obs = obs.New(nil, nil)
	observed, err := Table2(window, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := opt.Obs.Registry().Counter("magus_runs_total", "").Value(); n != 6 {
		t.Errorf("magus_runs_total = %v, want 6 idle runs", n)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(observed)
	if !bytes.Equal(a, b) {
		t.Fatalf("observed Table 2 differs from the unobserved one:\n%s\n%s", b, a)
	}
}
