// Package power holds the analytic power models of the node simulator:
// per-socket core and uncore domains, DRAM, and GPU boards. The models
// are deliberately simple — affine/polynomial in frequency, utilisation
// and traffic — and are calibrated against the operating points the
// paper reports (see internal/node presets and DESIGN.md §2):
//
//   - UNet on the 2×Xeon-8380 + A100 system draws ≈200 W package power
//     at the 2.2 GHz uncore maximum and ≈120 W at the 0.8 GHz minimum
//     (Figure 2), i.e. the uncore dynamic range is ≈40 % of package
//     power for that workload.
//   - A single A100-40GB idles near 30 W; four A100-80GB idle near
//     200 W total (§6.1).
//
// All model functions are pure; the node integrates them over time.
package power

import (
	"fmt"
	"math"
)

// CoreParams models one socket's core domain.
type CoreParams struct {
	// IdleWatts is the core-domain floor with all cores in idle states.
	IdleWatts float64
	// MaxPerCoreWatts is the incremental power of one fully utilised
	// core running at maximum frequency.
	MaxPerCoreWatts float64
	// FreqExp is the frequency exponent of active power (voltage
	// scales with frequency, so the effective exponent sits between 2
	// and 3; 2.4 matches published Xeon DVFS measurements well).
	FreqExp float64
}

// Validate reports configuration errors.
func (p CoreParams) Validate() error {
	if p.IdleWatts < 0 || p.MaxPerCoreWatts <= 0 || p.FreqExp < 1 || p.FreqExp > 3.5 {
		return fmt.Errorf("power: invalid CoreParams %+v", p)
	}
	return nil
}

// FreqPow returns x ↦ x^FreqExp for the relative core frequencies the
// node's power model raises to the exponent. Validate guarantees the
// exponent lies in [1, 3.5], the domain Pow is exact on.
func (p CoreParams) FreqPow() Pow { return newPow(p.FreqExp) }

// Pow evaluates x^y for one fixed exponent y in [1, 3.5] and x in
// (0, 1), bit-equal to math.Pow(x, y) at less than half its cost.
//
// For such inputs math.Pow splits y into an integer part yi and a
// fraction yf in [-0.5, 0.5], computes a = Exp(yf·Log(x)), and
// multiplies a by x^yi through repeated squaring of Frexp-normalised
// mantissas, finishing with Ldexp. Scaling by a power of two is exact
// while every value stays normal, so the same products on the
// unnormalised values round to the same bits: for x ≥ 2^-64 every
// factor and partial product here lies within [2^-256, 2^32]. Pow
// therefore keeps math.Pow's operations and their order and drops only
// the scaling, with y split once. Smaller x falls back to math.Pow.
// Where math.Pow is not the portable Go algorithm (s390x implements it
// in assembly), Pow is the portable algorithm (DESIGN.md).
type Pow struct {
	y  float64
	yi int
	yf float64
}

// newPow splits y as math.Pow does. It panics outside [1, 3.5].
func newPow(y float64) Pow {
	if !(y >= 1 && y <= 3.5) {
		panic(fmt.Sprintf("power: exponent %v outside [1, 3.5]", y))
	}
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	return Pow{y: y, yi: int(yi), yf: yf}
}

// minExactPowBase is 2^-64, the least base Of evaluates without
// math.Pow.
var minExactPowBase = math.Ldexp(1, -64)

// Of returns x^y for x in (0, 1).
func (p Pow) Of(x float64) float64 {
	if x < minExactPowBase {
		return math.Pow(x, p.y)
	}
	a := 1.0
	if p.yf != 0 {
		a = math.Exp(p.yf * math.Log(x))
	}
	x1 := x
	for i := p.yi; i != 0; i >>= 1 {
		if i&1 == 1 {
			a *= x1
		}
		x1 *= x1
	}
	return a
}

// UncoreParams models one socket's uncore domain (LLC, memory
// controller, UPI/mesh).
type UncoreParams struct {
	// BaseWatts is the frequency-independent floor.
	BaseWatts float64
	// DynMaxWatts is the additional power at maximum uncore frequency
	// with idle traffic; it scales quadratically with f/fmax.
	DynMaxWatts float64
	// TrafficWattsPerGBs is the switching power per GB/s of memory
	// traffic served by this socket's controllers.
	TrafficWattsPerGBs float64
}

// Validate reports configuration errors.
func (p UncoreParams) Validate() error {
	if p.BaseWatts < 0 || p.DynMaxWatts <= 0 || p.TrafficWattsPerGBs < 0 {
		return fmt.Errorf("power: invalid UncoreParams %+v", p)
	}
	return nil
}

// Power returns the uncore watts at relFreq = f/fmax with the given
// served traffic.
func (p UncoreParams) Power(relFreq, trafficGBs float64) float64 {
	relFreq = clamp01(relFreq)
	if trafficGBs < 0 {
		trafficGBs = 0
	}
	return p.BaseWatts + p.DynMaxWatts*relFreq*relFreq + p.TrafficWattsPerGBs*trafficGBs
}

// DramParams models one socket's DRAM domain as measured by RAPL.
type DramParams struct {
	// IdleWatts covers refresh and background power.
	IdleWatts float64
	// WattsPerGBs is the read/write energy per unit bandwidth
	// (≈0.12–0.2 W per GB/s for DDR4/DDR5).
	WattsPerGBs float64
}

// Validate reports configuration errors.
func (p DramParams) Validate() error {
	if p.IdleWatts < 0 || p.WattsPerGBs < 0 {
		return fmt.Errorf("power: invalid DramParams %+v", p)
	}
	return nil
}

// Power returns DRAM watts at the given served traffic.
func (p DramParams) Power(trafficGBs float64) float64 {
	if trafficGBs < 0 {
		trafficGBs = 0
	}
	return p.IdleWatts + p.WattsPerGBs*trafficGBs
}

// GPUParams models one GPU board (cores + HBM + VRM/fans/PCIe logic, as
// NVML's board power reports).
type GPUParams struct {
	// IdleWatts is board power with no kernels resident.
	IdleWatts float64
	// MaxWatts is the board power limit (TDP).
	MaxWatts float64
	// ComputeShare splits dynamic power between SM activity (scaled by
	// SM utilisation and clock squared) and memory activity (scaled by
	// memory utilisation). Typical ≈0.7.
	ComputeShare float64
}

// Validate reports configuration errors.
func (p GPUParams) Validate() error {
	if p.IdleWatts < 0 || p.MaxWatts <= p.IdleWatts || p.ComputeShare < 0 || p.ComputeShare > 1 {
		return fmt.Errorf("power: invalid GPUParams %+v", p)
	}
	return nil
}

// Power returns board watts at the given SM utilisation, relative SM
// clock (f/fmax) and memory utilisation, all in [0,1].
func (p GPUParams) Power(smUtil, relClock, memUtil float64) float64 {
	smUtil = clamp01(smUtil)
	relClock = clamp01(relClock)
	memUtil = clamp01(memUtil)
	dyn := p.MaxWatts - p.IdleWatts
	return p.IdleWatts + dyn*(p.ComputeShare*smUtil*relClock*relClock+(1-p.ComputeShare)*memUtil)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
