// Package rapl implements an Intel RAPL (Running Average Power Limit)
// reader over an MSR device: per-socket package and DRAM energy
// counters with the hardware's unit encoding and 32-bit wraparound
// semantics. The paper uses RAPL for all CPU-side power and energy
// measurement (§5); both the harness and the UPS baseline (which needs
// DRAM power) read through this package.
package rapl

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/msr"
)

// Reader samples RAPL counters for every socket of a node.
type Reader struct {
	dev      msr.Device
	sockets  int
	firstCPU func(socket int) int

	jouleUnit []float64
	lastPkg   []uint64
	lastDram  []uint64
	lastAt    time.Duration
	started   bool

	totalPkgJ  []float64
	totalDramJ []float64

	out Sample // Sample's result buffers, reused by every call
}

// New builds a reader. firstCPU maps a socket to a CPU that can address
// its package-scope MSRs. The RAPL unit register is read once per
// socket, as real tooling does.
func New(dev msr.Device, sockets int, firstCPU func(int) int) (*Reader, error) {
	if sockets <= 0 {
		return nil, fmt.Errorf("rapl: non-positive socket count %d", sockets)
	}
	r := &Reader{
		dev:        dev,
		sockets:    sockets,
		firstCPU:   firstCPU,
		jouleUnit:  make([]float64, sockets),
		lastPkg:    make([]uint64, sockets),
		lastDram:   make([]uint64, sockets),
		totalPkgJ:  make([]float64, sockets),
		totalDramJ: make([]float64, sockets),
	}
	buf := make([]float64, 4*sockets)
	r.out = Sample{
		PkgJ:  buf[:sockets:sockets],
		DramJ: buf[sockets : 2*sockets : 2*sockets],
		PkgW:  buf[2*sockets : 3*sockets : 3*sockets],
		DramW: buf[3*sockets:],
	}
	for s := 0; s < sockets; s++ {
		raw, err := dev.Read(firstCPU(s), msr.RaplPowerUnit)
		if err != nil {
			return nil, fmt.Errorf("rapl: read power unit socket %d: %w", s, err)
		}
		_, ju, _ := msr.DecodePowerUnit(raw)
		if ju <= 0 {
			return nil, fmt.Errorf("rapl: bad energy unit on socket %d", s)
		}
		r.jouleUnit[s] = ju
	}
	return r, nil
}

// Sockets returns the socket count.
func (r *Reader) Sockets() int { return r.sockets }

// Sample holds one sampling interval's results.
type Sample struct {
	// Interval is the time since the previous sample.
	Interval time.Duration
	// PkgJ and DramJ are per-socket joules consumed over the interval.
	PkgJ, DramJ []float64
	// PkgW and DramW are the corresponding average watts (zero on the
	// first sample, which only establishes a baseline).
	PkgW, DramW []float64
}

// TotalPkgW returns the sample's package watts summed over sockets.
func (s Sample) TotalPkgW() float64 { return sum(s.PkgW) }

// TotalDramW returns the sample's DRAM watts summed over sockets.
func (s Sample) TotalDramW() float64 { return sum(s.DramW) }

// TotalCPUW returns package + DRAM watts over all sockets — the paper's
// "CPU power" quantity.
func (s Sample) TotalCPUW() float64 { return s.TotalPkgW() + s.TotalDramW() }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// Sample reads all counters at virtual time now and returns the energy
// and average power since the previous call. The first call returns a
// zero sample and establishes the baseline. The returned slices belong
// to the reader and hold their values until the next call, so a
// governor sampling every cycle allocates nothing.
func (r *Reader) Sample(now time.Duration) (Sample, error) {
	out := r.out
	clear(out.PkgJ)
	clear(out.DramJ)
	clear(out.PkgW)
	clear(out.DramW)
	elapsed := now - r.lastAt
	for s := 0; s < r.sockets; s++ {
		cpu := r.firstCPU(s)
		pkg, err := r.dev.Read(cpu, msr.PkgEnergyStatus)
		if err != nil {
			return Sample{}, fmt.Errorf("rapl: pkg energy socket %d: %w", s, err)
		}
		dram, err := r.dev.Read(cpu, msr.DramEnergyStatus)
		if err != nil {
			return Sample{}, fmt.Errorf("rapl: dram energy socket %d: %w", s, err)
		}
		if r.started {
			pj := float64(msr.EnergyDelta(r.lastPkg[s], pkg)) * r.jouleUnit[s]
			dj := float64(msr.EnergyDelta(r.lastDram[s], dram)) * r.jouleUnit[s]
			out.PkgJ[s] = pj
			out.DramJ[s] = dj
			r.totalPkgJ[s] += pj
			r.totalDramJ[s] += dj
			if elapsed > 0 {
				out.PkgW[s] = pj / elapsed.Seconds()
				out.DramW[s] = dj / elapsed.Seconds()
			}
		}
		r.lastPkg[s] = pkg
		r.lastDram[s] = dram
	}
	if r.started {
		out.Interval = elapsed
	}
	r.lastAt = now
	r.started = true
	return out, nil
}

// TotalPkgJ returns cumulative package joules across sockets since the
// first sample.
func (r *Reader) TotalPkgJ() float64 { return sum(r.totalPkgJ) }

// TotalDramJ returns cumulative DRAM joules across sockets.
func (r *Reader) TotalDramJ() float64 { return sum(r.totalDramJ) }

// TDPWatts reads a socket's thermal design power from PKG_POWER_INFO.
func (r *Reader) TDPWatts(socket int) (float64, error) {
	raw, err := r.dev.Read(r.firstCPU(socket), msr.PkgPowerInfo)
	if err != nil {
		return 0, fmt.Errorf("rapl: power info socket %d: %w", socket, err)
	}
	return float64(raw&0x7FFF) * 0.125, nil
}
