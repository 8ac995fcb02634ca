package power

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUncorePower(t *testing.T) {
	p := UncoreParams{BaseWatts: 6, DynMaxWatts: 47, TrafficWattsPerGBs: 0.02}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	max := p.Power(1, 0)
	min := p.Power(0.8/2.2, 0)
	if max != 53 {
		t.Fatalf("max uncore power = %v, want 53", max)
	}
	// The quadratic form gives the ~40 W/socket swing the paper's
	// Figure 2 implies (≈82 W over two sockets).
	if d := max - min; d < 38 || d > 45 {
		t.Fatalf("uncore swing = %v W, want ≈41 W", d)
	}
	if got := p.Power(1, 100) - max; math.Abs(got-2) > 1e-12 {
		t.Fatalf("traffic power = %v, want 2", got)
	}
}

func TestDramPower(t *testing.T) {
	p := DramParams{IdleWatts: 10, WattsPerGBs: 0.15}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Power(0); got != 10 {
		t.Fatalf("idle = %v", got)
	}
	if got := p.Power(200); got != 40 {
		t.Fatalf("full bw = %v, want 40", got)
	}
	if got := p.Power(-5); got != 10 {
		t.Fatalf("negative traffic = %v, want 10", got)
	}
}

func TestGPUPower(t *testing.T) {
	p := GPUParams{IdleWatts: 30, MaxWatts: 250, ComputeShare: 0.7}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.Power(0, 1, 0); got != 30 {
		t.Fatalf("idle = %v, want 30", got)
	}
	if got := p.Power(1, 1, 1); got != 250 {
		t.Fatalf("max = %v, want 250", got)
	}
	// Memory-only activity draws the memory share.
	if got := p.Power(0, 1, 1); math.Abs(got-(30+220*0.3)) > 1e-9 {
		t.Fatalf("mem-only = %v, want 96", got)
	}
}

func TestValidateRejects(t *testing.T) {
	bads := []interface{ Validate() error }{
		CoreParams{IdleWatts: -1, MaxPerCoreWatts: 1, FreqExp: 2},
		CoreParams{IdleWatts: 1, MaxPerCoreWatts: 0, FreqExp: 2},
		CoreParams{IdleWatts: 1, MaxPerCoreWatts: 1, FreqExp: 9},
		UncoreParams{BaseWatts: -1, DynMaxWatts: 1},
		UncoreParams{BaseWatts: 1, DynMaxWatts: 0},
		DramParams{IdleWatts: -1},
		GPUParams{IdleWatts: 100, MaxWatts: 50, ComputeShare: 0.5},
		GPUParams{IdleWatts: 10, MaxWatts: 50, ComputeShare: 1.5},
	}
	for i, b := range bads {
		if b.Validate() == nil {
			t.Errorf("case %d: Validate accepted %+v", i, b)
		}
	}
}

// Properties: power is non-negative and monotone in each driver.
func TestPowerMonotonicity(t *testing.T) {
	unc := UncoreParams{BaseWatts: 6, DynMaxWatts: 47, TrafficWattsPerGBs: 0.02}
	gpu := GPUParams{IdleWatts: 30, MaxWatts: 250, ComputeShare: 0.7}

	prop := func(a, b uint16) bool {
		x := float64(a) / 65535
		y := float64(b) / 65535
		lo, hi := x, y
		if lo > hi {
			lo, hi = hi, lo
		}
		if unc.Power(lo, 50) > unc.Power(hi, 50)+1e-9 {
			return false
		}
		if gpu.Power(lo, 1, 0.5) > gpu.Power(hi, 1, 0.5)+1e-9 {
			return false
		}
		return unc.Power(lo, hi*300) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPowMatchesMathPow pins Pow bit for bit to math.Pow, its oracle:
// 207 exponents (the fixed set below plus 200 drawn from [1, 3.5]),
// each over 100,000 bases drawn log-uniformly from [2^-64, 1) and
// uniformly from (0, 1), plus the edges: 2^-64 and the float below it
// (the math.Pow fallback), the float below 1, and each preset's
// CoreMinGHz/CoreMaxGHz, the lowest relative frequency a core runs at.
func TestPowMatchesMathPow(t *testing.T) {
	exps := []float64{1, 2, 2.4, 2.5, 2.6, 3, 3.5}
	rng := rand.New(rand.NewSource(27))
	for len(exps) < 207 {
		exps = append(exps, 1+2.5*rng.Float64())
	}
	// CoreMinGHz, CoreMaxGHz of node.IntelA100 (and its GPU variants),
	// node.IntelMax1550 and hsmp.AMDEpycMI250.
	presets := [][2]float64{{0.8, 3.4}, {0.8, 3.5}, {1.5, 3.7}}
	edges := []float64{minExactPowBase, math.Nextafter(minExactPowBase, 0), math.Nextafter(1, 0)}
	for _, p := range presets {
		lo, hi := p[0], p[1] // variables: a constant quotient would round once at compile time
		edges = append(edges, lo/hi)
	}
	const perExp = 100000
	for _, y := range exps {
		p := newPow(y)
		check := func(x float64) {
			if got, want := p.Of(x), math.Pow(x, y); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Pow(%v).Of(%v) = %v, math.Pow = %v", y, x, got, want)
			}
		}
		for _, x := range edges {
			check(x)
		}
		for i := 0; i < perExp/2; i++ {
			check(math.Exp2(-64 * rng.Float64()))
			if x := rng.Float64(); x > 0 {
				check(x)
			}
		}
	}
}

func TestPowRejectsOutsideDomain(t *testing.T) {
	for _, y := range []float64{0.5, 0.999, 3.51, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newPow(%v) did not panic", y)
				}
			}()
			newPow(y)
		}()
	}
}
