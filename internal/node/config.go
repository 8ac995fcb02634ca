// Package node simulates a heterogeneous CPU–GPU compute node: CPU
// sockets with independent core (DVFS) and uncore domains, DRAM, and
// one or more GPU boards. The node exposes exactly the interfaces the
// paper's runtime stack consumes — an MSR device (internal/msr), RAPL
// energy counters, IMC traffic counters for PCM, and GPU board
// readouts — so the MAGUS runtime and the UPS baseline drive the
// simulated node with the same code paths they would use on hardware.
//
// The performance model couples the uncore to application progress
// through memory bandwidth: each socket serves up to
// BW(f) = PeakBW·(floor + (1-floor)·f/fmax) GB/s, and the workload
// runner slows down when its demand is not served (see
// internal/workload). The power model is in internal/power; presets
// calibrated against the paper's three systems are in this file.
package node

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/power"
)

// GPUSpec describes one GPU board.
type GPUSpec struct {
	Model        string
	Power        power.GPUParams
	IdleClockMHz float64
	MaxClockMHz  float64
}

// Config describes a node. All per-socket quantities are per socket.
type Config struct {
	Name           string
	Sockets        int
	CoresPerSocket int

	// Core frequency range (GHz) for the hardware DVFS model.
	CoreMinGHz, CoreBaseGHz, CoreMaxGHz float64

	// Uncore frequency range (GHz) — the knob MAGUS turns.
	UncoreMinGHz, UncoreMaxGHz float64

	// TDPWatts is the package thermal design power per socket; the
	// vendor-default governor only scales the uncore down when package
	// power approaches this limit (§2).
	TDPWatts float64

	// BWPerSocketGBs is peak memory bandwidth per socket at the
	// maximum uncore frequency; BWFloorFrac is the fraction still
	// available as uncore frequency approaches zero (extrapolated —
	// the operating range is [UncoreMinGHz, UncoreMaxGHz]).
	BWPerSocketGBs float64
	BWFloorFrac    float64

	Core   power.CoreParams
	Uncore power.UncoreParams
	Dram   power.DramParams
	GPUs   []GPUSpec

	// UncoreTau is the first-order response time of effective uncore
	// frequency to limit changes; CoreTau/GPUTau drive the DVFS models.
	UncoreTau time.Duration
	CoreTau   time.Duration
	GPUTau    time.Duration

	// TDPClamp enables the vendor-default hardware behaviour of
	// reducing uncore frequency when package power nears TDP.
	TDPClamp bool

	// CoreIPC is the per-core instructions-per-cycle at full service;
	// memory starvation scales it down (UPS observes this).
	CoreIPC float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("node: config without a name")
	case c.Sockets <= 0 || c.CoresPerSocket <= 0:
		return fmt.Errorf("node %s: bad topology %d×%d", c.Name, c.Sockets, c.CoresPerSocket)
	case !(0 < c.CoreMinGHz && c.CoreMinGHz <= c.CoreBaseGHz && c.CoreBaseGHz <= c.CoreMaxGHz):
		return fmt.Errorf("node %s: bad core frequency range", c.Name)
	case !(0 < c.UncoreMinGHz && c.UncoreMinGHz < c.UncoreMaxGHz):
		return fmt.Errorf("node %s: bad uncore frequency range", c.Name)
	case c.TDPWatts <= 0:
		return fmt.Errorf("node %s: bad TDP", c.Name)
	case c.BWPerSocketGBs <= 0 || c.BWFloorFrac < 0 || c.BWFloorFrac >= 1:
		return fmt.Errorf("node %s: bad bandwidth model", c.Name)
	case c.UncoreTau <= 0 || c.CoreTau <= 0 || c.GPUTau <= 0:
		return fmt.Errorf("node %s: bad time constants", c.Name)
	case c.CoreIPC <= 0:
		return fmt.Errorf("node %s: bad IPC", c.Name)
	}
	if err := c.Core.Validate(); err != nil {
		return fmt.Errorf("node %s: %w", c.Name, err)
	}
	if err := c.Uncore.Validate(); err != nil {
		return fmt.Errorf("node %s: %w", c.Name, err)
	}
	if err := c.Dram.Validate(); err != nil {
		return fmt.Errorf("node %s: %w", c.Name, err)
	}
	for i, g := range c.GPUs {
		if err := g.Power.Validate(); err != nil {
			return fmt.Errorf("node %s gpu %d: %w", c.Name, i, err)
		}
		if !(0 < g.IdleClockMHz && g.IdleClockMHz < g.MaxClockMHz) {
			return fmt.Errorf("node %s gpu %d: bad clock range", c.Name, i)
		}
	}
	return nil
}

// SystemBWGBs returns the node's peak memory bandwidth at max uncore.
func (c Config) SystemBWGBs() float64 {
	return float64(c.Sockets) * c.BWPerSocketGBs
}

// BWAt returns one socket's bandwidth at uncore frequency f (GHz).
func (c Config) BWAt(fGHz float64) float64 {
	rel := fGHz / c.UncoreMaxGHz
	if rel < 0 {
		rel = 0
	}
	if rel > 1 {
		rel = 1
	}
	return c.BWPerSocketGBs * (c.BWFloorFrac + (1-c.BWFloorFrac)*rel)
}

func a100(memGB int) GPUSpec {
	idle, max := 30.0, 250.0
	model := "A100-40GB"
	if memGB == 80 {
		idle, max = 50.0, 300.0
		model = "A100-80GB"
	}
	return GPUSpec{
		Model:        model,
		Power:        power.GPUParams{IdleWatts: idle, MaxWatts: max, ComputeShare: 0.7},
		IdleClockMHz: 210,
		MaxClockMHz:  1410,
	}
}

// IntelA100 returns the paper's first system: a Chameleon node with two
// Xeon Platinum 8380 sockets (40 cores, uncore 0.8–2.2 GHz, TDP 270 W)
// and one NVIDIA A100-40GB.
func IntelA100() Config {
	return Config{
		Name:           "Intel+A100",
		Sockets:        2,
		CoresPerSocket: 40,
		CoreMinGHz:     0.8,
		CoreBaseGHz:    2.3,
		CoreMaxGHz:     3.4,
		UncoreMinGHz:   0.8,
		UncoreMaxGHz:   2.2,
		TDPWatts:       270,
		BWPerSocketGBs: 200,
		BWFloorFrac:    0.15,
		Core:           power.CoreParams{IdleWatts: 36, MaxPerCoreWatts: 2.4, FreqExp: 2.4},
		Uncore:         power.UncoreParams{BaseWatts: 6, DynMaxWatts: 47, TrafficWattsPerGBs: 0.03},
		Dram:           power.DramParams{IdleWatts: 9, WattsPerGBs: 0.15},
		GPUs:           []GPUSpec{a100(40)},
		UncoreTau:      6 * time.Millisecond,
		CoreTau:        5 * time.Millisecond,
		GPUTau:         25 * time.Millisecond,
		TDPClamp:       true,
		CoreIPC:        2.0,
	}
}

// Intel4A100 returns the multi-GPU variant: same CPU complex with four
// A100-80GB boards on PCIe (aggregate idle ≈200 W, §6.1).
func Intel4A100() Config {
	c := IntelA100()
	c.Name = "Intel+4A100"
	c.GPUs = []GPUSpec{a100(80), a100(80), a100(80), a100(80)}
	return c
}

// IntelCPUOnly returns a traditional CPU-only HPC node (same 2× Xeon
// 8380 complex, no GPUs) — the setting prior uncore-scaling work
// targeted. On this preset, CPU-heavy workloads do push package power
// toward TDP, so the vendor's hardware clamp visibly engages — the
// contrast §2 draws against GPU-dominant nodes, where it never does.
func IntelCPUOnly() Config {
	c := IntelA100()
	c.Name = "Intel CPU-only"
	c.GPUs = nil
	return c
}

// IntelMax1550 returns the Aurora base unit: Xeon Max 9462 sockets
// (Sapphire Rapids, 32 cores, uncore 0.8–2.5 GHz, HBM2e) with an Intel
// Data Center GPU Max 1550.
func IntelMax1550() Config {
	return Config{
		Name:           "Intel+Max1550",
		Sockets:        2,
		CoresPerSocket: 32,
		CoreMinGHz:     0.8,
		CoreBaseGHz:    2.7,
		CoreMaxGHz:     3.5,
		UncoreMinGHz:   0.8,
		UncoreMaxGHz:   2.5,
		TDPWatts:       350,
		BWPerSocketGBs: 600, // HBM2e
		BWFloorFrac:    0.2,
		Core:           power.CoreParams{IdleWatts: 48, MaxPerCoreWatts: 3.2, FreqExp: 2.4},
		Uncore:         power.UncoreParams{BaseWatts: 10, DynMaxWatts: 62, TrafficWattsPerGBs: 0.015},
		Dram:           power.DramParams{IdleWatts: 14, WattsPerGBs: 0.05},
		GPUs: []GPUSpec{{
			Model:        "Max1550",
			Power:        power.GPUParams{IdleWatts: 100, MaxWatts: 600, ComputeShare: 0.7},
			IdleClockMHz: 300,
			MaxClockMHz:  1600,
		}},
		UncoreTau: 6 * time.Millisecond,
		CoreTau:   5 * time.Millisecond,
		GPUTau:    25 * time.Millisecond,
		TDPClamp:  true,
		CoreIPC:   2.2,
	}
}
