package spans

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func testModel() PowerModel {
	// IntelA100 preset's uncore parameters.
	return PowerModel{
		BaseWatts: 6, DynMaxWatts: 47, TrafficWattsPerGBs: 0.03,
		PeakGBs: 200, FloorFrac: 0.15, RelMin: 0.8 / 2.2,
	}
}

// TestDecomposeProperties pins the analytic behaviour of the split.
func TestDecomposeProperties(t *testing.T) {
	m := testModel()

	// At full speed with zero traffic, everything above RelMin² dynamic
	// is waste.
	b, u, w := m.Decompose(1, 0)
	if b != m.BaseWatts {
		t.Errorf("baseline = %v, want %v", b, m.BaseWatts)
	}
	wantU := m.DynMaxWatts * m.RelMin * m.RelMin
	if math.Abs(u-wantU) > 1e-12 {
		t.Errorf("useful at idle = %v, want %v", u, wantU)
	}
	if w <= 0 {
		t.Errorf("waste at full-speed idle = %v, want > 0", w)
	}

	// Running at exactly the needed frequency wastes nothing.
	traffic := 120.0
	need := m.relNeed(traffic)
	_, _, w = m.Decompose(need, traffic)
	if w != 0 {
		t.Errorf("waste at matched frequency = %v, want 0", w)
	}

	// Running below need wastes nothing either (clamped).
	_, _, w = m.Decompose(need*0.7, traffic)
	if w != 0 {
		t.Errorf("waste below need = %v, want 0", w)
	}

	// Saturated traffic needs rel = 1: no waste possible.
	_, _, w = m.Decompose(1, m.PeakGBs*2)
	if w != 0 {
		t.Errorf("waste at saturation = %v, want 0", w)
	}

	// Total matches power.UncoreParams.Power's formula.
	if got, want := m.Total(0.9, 50), m.BaseWatts+m.DynMaxWatts*0.81+m.TrafficWattsPerGBs*50; math.Abs(got-want) > 1e-12 {
		t.Errorf("Total = %v, want %v", got, want)
	}
}

// TestDecomposeBalanceRandomized is the ISSUE's randomized invariant:
// baseline + useful + waste == total within 1 ulp, per sample.
func TestDecomposeBalanceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	models := []PowerModel{
		testModel(),
		{BaseWatts: 10, DynMaxWatts: 62, TrafficWattsPerGBs: 0.015, PeakGBs: 600, FloorFrac: 0.2, RelMin: 0.32},
		{BaseWatts: 0, DynMaxWatts: 1, TrafficWattsPerGBs: 0, PeakGBs: 1, FloorFrac: 0, RelMin: 0},
	}
	for i := 0; i < 20000; i++ {
		m := models[i%len(models)]
		rel := rng.Float64() * 1.2     // includes out-of-range clamps
		traffic := rng.Float64() * 700 // includes beyond-peak
		if i%7 == 0 {
			rel = -rel
		}
		if i%11 == 0 {
			traffic = -traffic
		}
		b, u, w := m.Decompose(rel, traffic)
		total := m.Total(rel, traffic)
		// Sum and Total are computed with independent rounding orders;
		// DefaultBalanceUlps is the documented per-sample allowance.
		if diff := math.Abs(b + u + w - total); diff > DefaultBalanceUlps*ulp(total) {
			t.Fatalf("i=%d model=%+v rel=%v traffic=%v: |%v+%v+%v - %v| = %v > %v ulps (%v)",
				i, m, rel, traffic, b, u, w, total, diff, DefaultBalanceUlps, ulp(total))
		}
		if w < 0 || u < 0 || b < 0 {
			t.Fatalf("negative component: b=%v u=%v w=%v", b, u, w)
		}
	}
}

// TestLedgerWindowBalanceRandomized integrates random workloads
// through the full tracer path and checks every window (and the run
// total) balances within the sample-scaled ulp tolerance.
func TestLedgerWindowBalanceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := testModel()
		tr := New(10)
		tr.SetPowerModel(m)
		tr.BeginRun(Meta{Seed: seed})
		dt := time.Millisecond
		samplesPerWindow := 0
		now := time.Duration(0)
		for tick := 0; tick < 87; tick++ { // not a multiple of 10: last window stays open until Finish
			tr.BeginTick(now)
			tr.Decision(now, DecisionAttrs{TargetGHz: 1 + rng.Float64()})
			for s := 0; s < 300; s++ { // 300 × 1ms steps per 0.3s tick, 2 sockets
				for sock := 0; sock < 2; sock++ {
					rel := 0.3 + 0.7*rng.Float64()
					traffic := rng.Float64() * 250
					tr.AccumulateSocketActual(dt, rel, traffic, m.Total(rel, traffic))
				}
				now += dt
			}
			samplesPerWindow = 300 * 2 * 10
		}
		tr.Finish(now)

		l := tr.Ledger()
		if len(l.Windows()) == 0 {
			t.Fatal("no windows closed")
		}
		tol := BalanceTolUlps(samplesPerWindow)
		for _, w := range l.Windows() {
			if w.Energy.Imbalance() > tol*ulp(w.Energy.TotalJ) {
				t.Errorf("seed %d window %d: imbalance %v exceeds %v ulps of %v J",
					seed, w.Index, w.Energy.Imbalance(), tol, w.Energy.TotalJ)
			}
			if w.Energy.TotalJ <= 0 {
				t.Errorf("seed %d window %d: non-positive total %v", seed, w.Index, w.Energy.TotalJ)
			}
		}
		runTol := BalanceTolUlps(87 * 300 * 2)
		if l.Run().Imbalance() > runTol*ulp(l.Run().TotalJ) {
			t.Errorf("seed %d run imbalance %v exceeds tolerance", seed, l.Run().Imbalance())
		}
		if !l.Balanced(runTol) {
			t.Errorf("seed %d: Balanced(%v) = false", seed, runTol)
		}

		// Windows + open-tail == run (each sample lands in exactly one window bucket).
		var winSum float64
		for _, w := range l.Windows() {
			winSum += w.Energy.TotalJ
		}
		if winSum > l.Run().TotalJ*(1+1e-12) {
			t.Errorf("seed %d: window sum %v exceeds run total %v", seed, winSum, l.Run().TotalJ)
		}
	}
}

// TestLedgerPhaseAttribution checks phase bucketing under
// sample-and-hold and the deterministic sorted accessor.
func TestLedgerPhaseAttribution(t *testing.T) {
	m := testModel()
	tr := New(10)
	tr.SetPowerModel(m)
	tr.BeginRun(Meta{})
	dt := 10 * time.Millisecond

	tr.SetPhase("warmup")
	tr.AccumulateSocketActual(dt, 1, 0, m.Total(1, 0))
	tr.SetPhase("stream")
	tr.AccumulateSocketActual(dt, 1, 100, m.Total(1, 100))
	tr.AccumulateSocketActual(dt, 1, 100, m.Total(1, 100))
	tr.SetPhase("warmup") // returns to an existing bucket
	tr.AccumulateSocketActual(dt, 0.5, 0, m.Total(0.5, 0))
	tr.Finish(40 * time.Millisecond)

	phases := tr.Ledger().Phases()
	if len(phases) != 2 || phases[0].Name != "warmup" || phases[1].Name != "stream" {
		t.Fatalf("phases (first-seen order) = %+v", phases)
	}
	if got, want := phases[0].Energy.Seconds, 0.02; math.Abs(got-want) > 1e-12 {
		t.Errorf("warmup seconds = %v, want %v", got, want)
	}
	if got, want := phases[1].Energy.Seconds, 0.02; math.Abs(got-want) > 1e-12 {
		t.Errorf("stream seconds = %v, want %v", got, want)
	}
	var phaseSum float64
	for _, p := range phases {
		phaseSum += p.Energy.TotalJ
	}
	if math.Abs(phaseSum-tr.Ledger().Run().TotalJ) > 1e-9 {
		t.Errorf("phase totals %v != run total %v", phaseSum, tr.Ledger().Run().TotalJ)
	}
}

// TestEnergyAttrHelpers covers the small accessors.
func TestEnergyAttrHelpers(t *testing.T) {
	e := EnergyAttr{BaselineJ: 1, UsefulJ: 2, WasteJ: 3, TotalJ: 6}
	if e.SumJ() != 6 {
		t.Errorf("SumJ = %v", e.SumJ())
	}
	if e.Imbalance() != 0 {
		t.Errorf("Imbalance = %v", e.Imbalance())
	}
	if e.WasteFrac() != 0.5 {
		t.Errorf("WasteFrac = %v", e.WasteFrac())
	}
	if (EnergyAttr{}).WasteFrac() != 0 {
		t.Error("zero WasteFrac should be 0")
	}
	var nilL *Ledger
	if nilL.Run() != (EnergyAttr{}) || nilL.Windows() != nil || nilL.Phases() != nil || !nilL.Balanced(1) {
		t.Error("nil ledger accessors not zero-safe")
	}
}

// TestLedgerTenantSplit checks the co-located tenant bucketing: energy
// splits by the live weight slice (re-read every accumulation), falls
// back to an even split when all weights are zero, and the per-tenant
// buckets sum to the run totals.
func TestLedgerTenantSplit(t *testing.T) {
	m := testModel()
	tr := New(10)
	tr.SetPowerModel(m)
	tr.SetTenantSplit([]string{"a", "b"}, []float64{3, 1})
	weights := tr.Ledger().tenantW
	tr.BeginRun(Meta{})
	dt := 10 * time.Millisecond

	tr.AccumulateSocketActual(dt, 1, 100, m.Total(1, 100))
	// Mutate the live slice in place, as the workload mux does.
	weights[0], weights[1] = 1, 1
	tr.AccumulateSocketActual(dt, 1, 100, m.Total(1, 100))
	weights[0], weights[1] = 0, 0 // both idle: even split
	tr.AccumulateSocketActual(dt, 0.5, 0, m.Total(0.5, 0))
	tr.Finish(30 * time.Millisecond)

	tenants := tr.Ledger().Tenants()
	if len(tenants) != 2 || tenants[0].Name != "a" || tenants[1].Name != "b" {
		t.Fatalf("tenants = %+v", tenants)
	}
	run := tr.Ledger().Run()
	var sumTotal, sumSeconds float64
	for _, te := range tenants {
		sumTotal += te.Energy.TotalJ
		sumSeconds += te.Energy.Seconds
	}
	if math.Abs(sumTotal-run.TotalJ) > 1e-9 {
		t.Errorf("tenant totals %v != run total %v", sumTotal, run.TotalJ)
	}
	if math.Abs(sumSeconds-run.Seconds) > 1e-12 {
		t.Errorf("tenant seconds %v != run seconds %v", sumSeconds, run.Seconds)
	}
	// First step 3:1, second 1:1, third even: a = 0.75·s1 + 0.5·(s2+s3).
	s1 := m.Total(1, 100) * dt.Seconds()
	s23 := m.Total(1, 100)*dt.Seconds() + m.Total(0.5, 0)*dt.Seconds()
	wantA := 0.75*s1 + 0.5*s23
	if got := tenants[0].Energy.TotalJ; math.Abs(got-wantA) > 1e-9 {
		t.Errorf("tenant a total %v, want %v", got, wantA)
	}
}

// TestLedgerTenantSplitAccessors: nil ledger and split-less ledgers
// return no tenants; mismatched names/weights panic at install.
func TestLedgerTenantSplitMisuse(t *testing.T) {
	var nilLedger *Ledger
	if nilLedger.Tenants() != nil {
		t.Fatal("nil ledger has tenants")
	}
	tr := New(10)
	if tr.Ledger().Tenants() != nil {
		t.Fatal("split-less ledger has tenants")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched tenant split did not panic")
		}
	}()
	tr.SetTenantSplit([]string{"a", "b"}, []float64{1})
}
