// Package msr models the Model-Specific Register interface that MAGUS
// and the UPS baseline drive on real hardware. It provides the register
// address map and bit-field encodings used by the paper (most
// importantly MSR_UNCORE_RATIO_LIMIT 0x620 and the RAPL energy
// counters) and a thread-safe simulated register space with per-core
// and per-package scoping. The space models only the registers listed
// below: each bank is a fixed array with one slot per register of its
// scope, in address order, and a mask of the slots ever written, so a
// snapshot lists exactly those registers, sorted by address.
//
// The uncore ratio-limit encoding follows the example in §4 of the
// paper: `wrmsr -p 0 0x620 0x0F001200` sets the max ratio to 0x12 (18 ×
// 100 MHz = 1.8 GHz... the paper uses 1.5 GHz with ratio 0x0F in the low
// byte; see EncodeUncoreLimit for the exact layout) while leaving the
// minimum ratio bits untouched.
package msr

// Register addresses (Intel SDM volume 4, server uncore and RAPL
// domains). Only the registers the runtimes actually touch are defined.
const (
	// UncoreRatioLimit (MSR_UNCORE_RATIO_LIMIT) holds the maximum
	// uncore ratio in bits 6:0 and the minimum ratio in bits 14:8,
	// both in units of 100 MHz. Package scope.
	UncoreRatioLimit uint32 = 0x620

	// UncorePerfStatus (MSR_UNCORE_PERF_STATUS) reports the current
	// operating uncore ratio in bits 6:0. Read-only, package scope.
	UncorePerfStatus uint32 = 0x621

	// RaplPowerUnit (MSR_RAPL_POWER_UNIT): power units in bits 3:0
	// (W = 1/2^PU), energy units in bits 12:8 (J = 1/2^EU), time units
	// in bits 19:16. Package scope.
	RaplPowerUnit uint32 = 0x606

	// PkgEnergyStatus (MSR_PKG_ENERGY_STATUS): 32-bit wrapping counter
	// of package energy in energy units. Package scope.
	PkgEnergyStatus uint32 = 0x611

	// PkgPowerLimit (MSR_PKG_POWER_LIMIT): package power cap. Package
	// scope. Only the PL1 field (bits 14:0, power units) is modelled.
	PkgPowerLimit uint32 = 0x610

	// PkgPowerInfo (MSR_PKG_POWER_INFO): bits 14:0 hold the thermal
	// design power in power units. Read-only, package scope.
	PkgPowerInfo uint32 = 0x614

	// DramEnergyStatus (MSR_DRAM_ENERGY_STATUS): 32-bit wrapping
	// counter of DRAM energy in energy units. Package scope.
	DramEnergyStatus uint32 = 0x619

	// FixedCtrInstRetired (IA32_FIXED_CTR0): instructions retired.
	// Core scope. UPS reads this per core every interval.
	FixedCtrInstRetired uint32 = 0x309

	// FixedCtrCPUCycles (IA32_FIXED_CTR1): unhalted core cycles.
	// Core scope.
	FixedCtrCPUCycles uint32 = 0x30A

	// Aperf / Mperf (IA32_APERF / IA32_MPERF): actual / maximum
	// performance frequency clock counts; their ratio gives the
	// effective core frequency. Core scope.
	Aperf uint32 = 0xE8
	Mperf uint32 = 0xE7
)

// RatioUnitHz is the granularity of uncore ratio fields: 100 MHz.
const RatioUnitHz = 100e6

const (
	uncoreMaxShift = 0
	uncoreMinShift = 8
	uncoreMask     = 0x7F
)

// EncodeUncoreLimit packs max/min uncore frequencies (Hz) into the
// MSR_UNCORE_RATIO_LIMIT layout. Frequencies are rounded to the nearest
// 100 MHz ratio and clamped to the 7-bit field.
func EncodeUncoreLimit(maxHz, minHz float64) uint64 {
	return uint64(HzToRatio(maxHz))<<uncoreMaxShift |
		uint64(HzToRatio(minHz))<<uncoreMinShift
}

// DecodeUncoreLimit unpacks MSR_UNCORE_RATIO_LIMIT into max/min
// frequencies in Hz.
func DecodeUncoreLimit(v uint64) (maxHz, minHz float64) {
	maxHz = RatioToHz(int(v >> uncoreMaxShift & uncoreMask))
	minHz = RatioToHz(int(v >> uncoreMinShift & uncoreMask))
	return maxHz, minHz
}

// WithUncoreMax replaces only the max-ratio bits of an existing
// MSR_UNCORE_RATIO_LIMIT value, leaving the minimum bits unchanged —
// exactly what the paper's runtime does (§4).
func WithUncoreMax(old uint64, maxHz float64) uint64 {
	return old&^uint64(uncoreMask<<uncoreMaxShift) |
		uint64(HzToRatio(maxHz))<<uncoreMaxShift
}

// HzToRatio converts a frequency to a 100 MHz ratio, rounding to
// nearest and clamping to the 7-bit field range [0,127].
func HzToRatio(hz float64) int {
	r := int(hz/RatioUnitHz + 0.5)
	if r < 0 {
		r = 0
	}
	if r > uncoreMask {
		r = uncoreMask
	}
	return r
}

// RatioToHz converts a 100 MHz ratio to Hz.
func RatioToHz(ratio int) float64 { return float64(ratio) * RatioUnitHz }

// Default RAPL unit exponents (Sapphire Rapids / Ice Lake server
// defaults): power 1/8 W, energy 1/2^14 J ≈ 61 µJ, time 1/2^10 s.
const (
	DefaultPowerUnitExp  = 3
	DefaultEnergyUnitExp = 14
	DefaultTimeUnitExp   = 10
)

// EncodePowerUnit builds an MSR_RAPL_POWER_UNIT value from the three
// unit exponents.
func EncodePowerUnit(powerExp, energyExp, timeExp uint) uint64 {
	return uint64(powerExp&0xF) | uint64(energyExp&0x1F)<<8 | uint64(timeExp&0xF)<<16
}

// DecodePowerUnit returns the unit sizes in watts, joules and seconds
// encoded in an MSR_RAPL_POWER_UNIT value.
func DecodePowerUnit(v uint64) (wattUnit, jouleUnit, secondUnit float64) {
	pw := v & 0xF
	en := v >> 8 & 0x1F
	tm := v >> 16 & 0xF
	return 1 / float64(uint64(1)<<pw), 1 / float64(uint64(1)<<en), 1 / float64(uint64(1)<<tm)
}

// EnergyCounterMask is the wrapping modulus of RAPL energy-status
// counters (32 bits).
const EnergyCounterMask = 0xFFFFFFFF

// EnergyDelta computes the energy-unit delta between two reads of a
// 32-bit wrapping energy counter, handling a single wraparound.
func EnergyDelta(prev, cur uint64) uint64 {
	prev &= EnergyCounterMask
	cur &= EnergyCounterMask
	if cur >= prev {
		return cur - prev
	}
	return cur + (EnergyCounterMask + 1) - prev
}

// EncodePowerLimit packs a PL1 power cap (watts) into the
// MSR_PKG_POWER_LIMIT layout given a power-unit size; bit 15 is the
// enable bit.
func EncodePowerLimit(watts, wattUnit float64, enabled bool) uint64 {
	units := uint64(watts/wattUnit + 0.5)
	if units > 0x7FFF {
		units = 0x7FFF
	}
	v := units
	if enabled {
		v |= 1 << 15
	}
	return v
}

// DecodePowerLimit returns the PL1 cap in watts and its enable bit.
func DecodePowerLimit(v uint64, wattUnit float64) (watts float64, enabled bool) {
	return float64(v&0x7FFF) * wattUnit, v&(1<<15) != 0
}
