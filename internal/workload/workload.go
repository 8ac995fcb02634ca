// Package workload generates the demand signals GPU-dominant
// applications place on a heterogeneous node: host memory throughput
// (the single signal MAGUS watches), host CPU activity, and per-GPU
// compute/memory utilisation. An application is a Program — a sequence
// of phases, each with a nominal duration, a memory-demand shape
// (constant, square-wave, bursts, ramps), a memory-bound fraction, and
// CPU/GPU utilisation levels — optionally repeated (training epochs).
//
// Progress through a phase is gated by served memory throughput: a
// phase with memory-bound fraction β advances at rate
// (1-β) + β·min(1, attained/demand), which reproduces the paper's core
// trade-off (Figure 2: UNet runs 21 % longer when the uncore is pinned
// at its minimum). Demand shapes are functions of *progress time*, so a
// starved application moves through its pattern more slowly, exactly as
// a real stalled data pipeline would.
//
// The catalog in catalog.go instantiates every workload the paper
// evaluates, with demand levels expressed as fractions of the target
// system's peak bandwidth so one program ports across the three
// evaluated systems.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/spear-repro/magus/internal/detrand"
)

// Demand is the instantaneous resource request an application places on
// the node.
type Demand struct {
	// CPUBusyCores is the number of busy host cores across the node
	// (data-loader workers, kernel-launch threads). May be fractional.
	CPUBusyCores float64
	// MemGBs is the requested host memory throughput in GB/s,
	// system-wide (DRAM traffic incl. DMA staging for H2D/D2H copies).
	MemGBs float64
	// MemBoundFrac is β: the fraction of application progress gated by
	// memory throughput at this instant.
	MemBoundFrac float64
	// GPUSMUtil and GPUMemUtil apply to every GPU the program uses
	// (data-parallel workloads drive them symmetrically).
	GPUSMUtil  float64
	GPUMemUtil float64
	// NUMASkew biases memory traffic toward socket 0: 0 = interleaved
	// evenly, 1 = all traffic on socket 0. NUMA-imbalanced workloads
	// are the target of the per-socket scaling extension.
	NUMASkew float64
	// CPUIntensity scales per-core active power for the instruction
	// mix (1 = scalar/data-movement threads; ≈2 = AVX-heavy HPC
	// kernels). Zero means 1.
	CPUIntensity float64
}

// Shape selects how a phase's memory demand varies over progress time.
type Shape int

const (
	// Constant holds demand at Phase.Mem.
	Constant Shape = iota
	// Square alternates between Phase.Mem (for Duty of each Period)
	// and Phase.MemLow — the fine-grained compute/transfer alternation
	// of GPU workloads (§2, challenge 3).
	Square
	// Bursts emits pseudo-random bursts: each Period, with probability
	// Duty, demand holds at Phase.Mem for BurstLen, else at
	// Phase.MemLow.
	Bursts
	// RampUp rises linearly from MemLow to Mem across the phase;
	// RampDown falls.
	RampUp
	RampDown
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case Constant:
		return "constant"
	case Square:
		return "square"
	case Bursts:
		return "bursts"
	case RampUp:
		return "ramp-up"
	case RampDown:
		return "ramp-down"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Phase is one execution region of an application.
type Phase struct {
	Name string
	// Duration is the nominal phase length when fully served.
	Duration time.Duration

	// Mem is the peak memory demand as a fraction of the target
	// system's maximum bandwidth; MemLow is the trough for modulated
	// shapes.
	Mem    float64
	MemLow float64
	Shape  Shape
	// Period and Duty parameterise Square and Bursts; BurstLen bounds
	// burst length for Bursts (defaults to Duty·Period).
	Period   time.Duration
	Duty     float64
	BurstLen time.Duration

	// Beta is the phase's memory-bound fraction β.
	Beta float64

	// CPUBusyCores and the GPU utilisations during the phase. When
	// GPUAntiPhase is set, GPU SM utilisation dips to GPUSMLow while
	// memory demand is high (transfer stalls compute).
	CPUBusyCores float64
	GPUSM        float64
	GPUSMLow     float64
	GPUAntiPhase bool
	GPUMem       float64

	// Jitter is the relative amplitude of smoothed multiplicative
	// noise applied to memory demand and CPU activity.
	Jitter float64

	// NUMASkew biases the phase's memory traffic toward socket 0
	// (0 = interleaved, 1 = socket 0 only).
	NUMASkew float64

	// CPUIntensity scales per-core active power for the phase's
	// instruction mix (0 = default 1.0; ≈2 for AVX-heavy kernels).
	CPUIntensity float64
}

// Program is a full application: an optional one-time Prologue
// (framework startup, input parsing — typically light on memory), then
// the Phases body repeated Repeat times (Repeat <= 1 means once).
type Program struct {
	Name     string
	Prologue []Phase
	Phases   []Phase
	Repeat   int
}

// NominalDuration is the end-to-end runtime when every phase is fully
// served.
func (p *Program) NominalDuration() time.Duration {
	var d time.Duration
	for _, ph := range p.Prologue {
		d += ph.Duration
	}
	var body time.Duration
	for _, ph := range p.Phases {
		body += ph.Duration
	}
	reps := p.Repeat
	if reps < 1 {
		reps = 1
	}
	return d + body*time.Duration(reps)
}

// reps normalises Repeat (<= 1 means the body runs once).
func (p *Program) reps() int {
	if p.Repeat < 1 {
		return 1
	}
	return p.Repeat
}

// phaseCount is the number of executed phases: prologue plus the body
// times Repeat.
func (p *Program) phaseCount() int {
	return len(p.Prologue) + len(p.Phases)*p.reps()
}

// phaseAt maps an executed phase index onto the program structure:
// prologue phases first, then the body cycled Repeat times. O(1), no
// flattened copy.
func (p *Program) phaseAt(i int) *Phase {
	if i < len(p.Prologue) {
		return &p.Prologue[i]
	}
	return &p.Phases[(i-len(p.Prologue))%len(p.Phases)]
}

// Validate checks the program for construction errors. It walks the
// prologue and body in place (indices match the executed order of the
// first repetition) and does not allocate on the happy path.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: program without a name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", p.Name)
	}
	for i := range p.Prologue {
		if err := p.validatePhase(i, &p.Prologue[i]); err != nil {
			return err
		}
	}
	for i := range p.Phases {
		if err := p.validatePhase(len(p.Prologue)+i, &p.Phases[i]); err != nil {
			return err
		}
	}
	return nil
}

// validatePhase checks one phase, reporting it under its executed index.
func (p *Program) validatePhase(i int, ph *Phase) error {
	if ph.Duration <= 0 {
		return fmt.Errorf("workload %s phase %d (%s): non-positive duration", p.Name, i, ph.Name)
	}
	if ph.Mem < 0 || ph.Mem > 1 || ph.MemLow < 0 || ph.MemLow > ph.Mem {
		return fmt.Errorf("workload %s phase %d (%s): memory fractions out of range", p.Name, i, ph.Name)
	}
	if ph.Beta < 0 || ph.Beta > 1 {
		return fmt.Errorf("workload %s phase %d (%s): beta out of range", p.Name, i, ph.Name)
	}
	if (ph.Shape == Square || ph.Shape == Bursts) && ph.Period <= 0 {
		return fmt.Errorf("workload %s phase %d (%s): modulated shape needs a period", p.Name, i, ph.Name)
	}
	if ph.Duty < 0 || ph.Duty > 1 {
		return fmt.Errorf("workload %s phase %d (%s): duty out of range", p.Name, i, ph.Name)
	}
	if ph.Jitter < 0 || ph.Jitter > 0.5 {
		return fmt.Errorf("workload %s phase %d (%s): jitter out of range", p.Name, i, ph.Name)
	}
	if ph.NUMASkew < 0 || ph.NUMASkew > 1 {
		return fmt.Errorf("workload %s phase %d (%s): NUMA skew out of range", p.Name, i, ph.Name)
	}
	if ph.CPUIntensity < 0 || ph.CPUIntensity > 3 {
		return fmt.Errorf("workload %s phase %d (%s): CPU intensity out of range", p.Name, i, ph.Name)
	}
	return nil
}

// Runner executes a Program against a node. It is a sim.Component: each
// step it advances phase progress using the throughput the node served
// last step, then publishes the new demand. Bind the node's feedback
// with SetAttained before stepping.
type Runner struct {
	prog     *Program
	sysBWGBs float64
	src      *detrand.Source
	rng      *rand.Rand
	attained func() float64

	// The executed phase sequence is never materialised: cur points at
	// the active phase inside the program (phaseAt maps phaseIdx onto
	// prologue + cycled body) and advances monotonically with the
	// cursor, so a step touches no flattened copy and allocates nothing.
	cur       *Phase
	numPhases int

	phaseIdx  int
	progress  time.Duration // progress-time within the current phase
	burstOn   bool
	burstSeen time.Duration // start of the burst period last rolled; -1 = none
	noise     float64
	done      bool

	demand     Demand
	prevDemand float64
	elapsed    time.Duration
}

// NewRunner binds a program to a system with the given peak bandwidth.
// seed makes the run deterministic.
func NewRunner(prog *Program, sysBWGBs float64, seed int64) *Runner {
	if err := prog.Validate(); err != nil {
		panic(err)
	}
	if sysBWGBs <= 0 {
		panic(fmt.Sprintf("workload: non-positive system bandwidth %v", sysBWGBs))
	}
	// The generator rides on a counting source so a checkpoint can
	// capture the stream position; the emitted values are bit-identical
	// to a bare rand.NewSource (see internal/detrand).
	src := detrand.NewSource(seed)
	return &Runner{
		prog:      prog,
		cur:       prog.phaseAt(0),
		numPhases: prog.phaseCount(),
		sysBWGBs:  sysBWGBs,
		src:       src,
		rng:       rand.New(src),
		attained:  func() float64 { return 0 },
		burstSeen: -1,
	}
}

// SetAttained installs the node feedback: the memory throughput (GB/s)
// actually served during the previous step.
func (r *Runner) SetAttained(fn func() float64) {
	if fn == nil {
		panic("workload: nil attained func")
	}
	r.attained = fn
}

// Done reports whether the program has completed.
func (r *Runner) Done() bool { return r.done }

// Elapsed returns virtual time consumed so far.
func (r *Runner) Elapsed() time.Duration { return r.elapsed }

// Demand returns the demand published by the last Step.
func (r *Runner) Demand() Demand { return r.demand }

// Program returns the bound program.
func (r *Runner) Program() *Program { return r.prog }

// PhaseName returns the active phase's name, or "done" after the
// program completes — the waste ledger's per-phase attribution key.
func (r *Runner) PhaseName() string {
	if r.done || r.cur == nil {
		return "done"
	}
	return r.cur.Name
}

// Step implements sim.Component.
func (r *Runner) Step(now, dt time.Duration) {
	if r.done {
		r.demand = Demand{}
		return
	}
	r.elapsed += dt
	ph := r.cur

	// Advance progress using last step's service ratio.
	rate := 1.0
	if ph.Beta > 0 && r.prevDemand > 1e-9 {
		served := r.attained()
		ratio := served / r.prevDemand
		if ratio > 1 {
			ratio = 1
		}
		rate = (1 - ph.Beta) + ph.Beta*ratio
	}
	r.progress += time.Duration(float64(dt) * rate)

	// Phase transitions.
	for r.progress >= ph.Duration {
		r.progress -= ph.Duration
		r.phaseIdx++
		r.burstOn = false
		r.burstSeen = -1
		if r.phaseIdx >= r.numPhases {
			r.done = true
			r.demand = Demand{}
			r.prevDemand = 0
			return
		}
		ph = r.prog.phaseAt(r.phaseIdx)
		r.cur = ph
	}

	// Smoothed multiplicative noise (first-order filtered white noise).
	if ph.Jitter > 0 {
		r.noise += 0.1 * (r.rng.Float64()*2 - 1 - r.noise)
	} else {
		r.noise = 0
	}

	memFrac, high := r.shapeValue(ph)
	mem := memFrac * r.sysBWGBs * (1 + ph.Jitter*r.noise*2)
	if mem < 0 {
		mem = 0
	}
	gpuSM := ph.GPUSM
	if ph.GPUAntiPhase && high {
		gpuSM = ph.GPUSMLow
	}
	r.demand = Demand{
		CPUBusyCores: ph.CPUBusyCores * (1 + ph.Jitter*r.noise),
		MemGBs:       mem,
		MemBoundFrac: ph.Beta,
		GPUSMUtil:    gpuSM,
		GPUMemUtil:   ph.GPUMem,
		NUMASkew:     ph.NUMASkew,
		CPUIntensity: ph.CPUIntensity,
	}
	if r.demand.CPUBusyCores < 0 {
		r.demand.CPUBusyCores = 0
	}
	r.prevDemand = r.demand.MemGBs
}

// shapeValue returns the memory fraction for the current progress point
// and whether the shape is in its high state.
func (r *Runner) shapeValue(ph *Phase) (frac float64, high bool) {
	switch ph.Shape {
	case Constant:
		return ph.Mem, true
	case Square:
		pos := r.progress % ph.Period
		if float64(pos) < ph.Duty*float64(ph.Period) {
			return ph.Mem, true
		}
		return ph.MemLow, false
	case Bursts:
		// Roll the dice once per period.
		if start := r.progress - r.progress%ph.Period; start != r.burstSeen {
			r.burstSeen = start
			r.burstOn = r.rng.Float64() < ph.Duty
		}
		burstLen := ph.BurstLen
		if burstLen <= 0 {
			burstLen = time.Duration(ph.Duty * float64(ph.Period))
		}
		if r.burstOn && r.progress-r.burstSeen < burstLen {
			return ph.Mem, true
		}
		return ph.MemLow, false
	case RampUp:
		t := float64(r.progress) / float64(ph.Duration)
		return ph.MemLow + (ph.Mem-ph.MemLow)*t, t > 0.5
	case RampDown:
		t := float64(r.progress) / float64(ph.Duration)
		return ph.Mem - (ph.Mem-ph.MemLow)*t, t < 0.5
	}
	return ph.Mem, true
}

// Idle returns a program that sits idle for d — used for the Table 2
// overhead measurements (10 idle minutes).
func Idle(d time.Duration) *Program {
	return &Program{
		Name: "idle",
		Phases: []Phase{{
			Name:     "idle",
			Duration: d,
		}},
	}
}
