// Package checkpoint defines the deterministic snapshot of a complete
// harness run — node, devices, governor, workload cursor, telemetry,
// observability and span state — together with a versioned,
// self-describing binary encoding. A checkpoint captured at virtual
// time T and resumed through harness.Resume produces a run whose
// records, metrics, event streams and spans are byte-identical to the
// same run executed uninterrupted (pinned by the harness differential
// tests).
//
// Two design rules keep that guarantee simple:
//
//   - Construction inputs are recorded as identity (node config,
//     program name, seed, fault plan, option subset); a resume rebuilds
//     the full wiring exactly as the original construction did, then
//     overwrites every piece of mutable state wholesale. Anything the
//     construction reproduces deterministically (RAPL joule units, MSR
//     power-unit registers, injector creation order) therefore never
//     needs to be serialised.
//   - RNG streams are captured as (seed, draws) positions of counting
//     sources (internal/detrand), not as opaque generator states: a
//     restore re-seeds and discards exactly draws values, which is
//     bit-exact for math/rand's generator and keeps the encoding
//     self-describing.
//
// The state structs deliberately contain no maps — map iteration order
// would make the gob encoding nondeterministic — so every map in the
// live objects is flattened into a canonically sorted slice by the
// owning package's State() method.
package checkpoint

import (
	"fmt"
	"math"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/pcm"
	"github.com/spear-repro/magus/internal/rapl"
	"github.com/spear-repro/magus/internal/sim"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/telemetry"
	"github.com/spear-repro/magus/internal/workload"
)

// RunObserverState is the harness's metrics-sampling component state:
// the next sample deadline, the last published health, each cumulative
// counter delta's high-water mark (in registration order) and the last
// fault tally folded into the registry.
type RunObserverState struct {
	Next       time.Duration
	LastHealth int
	DeltaLast  []uint64
	LastTally  faults.Tally
}

// DecisionObserverState is the harness's decision-hook state: the
// previous decision's timestamp, trend, phase and health, used for
// edge-triggered events and the period histogram.
type DecisionObserverState struct {
	HavePrev   bool
	PrevAt     time.Duration
	PrevTrend  int
	PrevPhase  int
	PrevHealth int
}

// Data is one run's complete snapshot. Exactly one governor payload
// field is set, matching GovName; optional subsystems (faults,
// telemetry, observability, spans) are nil when the run was built
// without them.
type Data struct {
	// Identity: what to rebuild before restoring state.
	System  node.Config
	Program string
	GovName string

	// Option subset the original run was built with. Horizon is the
	// resolved safety horizon, not the possibly-zero option.
	Seed          int64
	Step          time.Duration
	TraceInterval time.Duration
	Horizon       time.Duration
	PCMNoise      float64
	Faults        *faults.Plan
	HasObs        bool

	// Engine, node and device state.
	Engine   sim.State
	Node     node.State
	Runner   workload.RunnerState
	FaultSet *faults.SetState
	SysPCM   pcm.State
	SockPCM  []pcm.State
	// NoiseDraws is the position of the PCM noise stream the monitors
	// share (0 when PCMNoise is 0).
	NoiseDraws uint64
	RAPL       *rapl.State

	// Governor payload, discriminated by the concrete type behind
	// GovName. Shadow carries the env's uncore-limit cache for
	// stateless governors (vendor default, static pins).
	Magus     *core.State
	PerSocket *core.PerSocketState
	UPS       *governor.UPSState
	DUF       *governor.DUFState
	Shadow    []governor.ShadowEntry

	// Telemetry and observability.
	Recorder    *telemetry.State
	Registry    []obs.InstrumentState
	EventCount  uint64
	Health      int
	RunObs      *RunObserverState
	DecisionObs *DecisionObserverState

	// Decision-causality spans.
	Tracer        *spans.TracerState
	SpanLastPhase string
}

// Validate performs the structural checks that do not need the rebuilt
// wiring: a decoded checkpoint either passes or is rejected before any
// restore begins. Resume performs the deeper cross-checks (topology,
// seeds, window sizes) against the freshly built run.
func (d *Data) Validate() error {
	if d == nil {
		return fmt.Errorf("checkpoint: nil data")
	}
	if err := d.System.Validate(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if d.Program == "" {
		return fmt.Errorf("checkpoint: no program name")
	}
	if _, ok := workload.ByName(d.Program); !ok {
		return fmt.Errorf("checkpoint: unknown program %q", d.Program)
	}
	if d.GovName == "" {
		return fmt.Errorf("checkpoint: no governor name")
	}
	govPayloads := 0
	for _, set := range []bool{d.Magus != nil, d.PerSocket != nil, d.UPS != nil, d.DUF != nil} {
		if set {
			govPayloads++
		}
	}
	if govPayloads > 1 {
		return fmt.Errorf("checkpoint: %d governor payloads set", govPayloads)
	}
	if !(d.PCMNoise >= 0) || math.IsInf(d.PCMNoise, 1) {
		return fmt.Errorf("checkpoint: PCM noise amplitude %v is not a finite non-negative number", d.PCMNoise)
	}
	if d.PCMNoise == 0 && d.NoiseDraws != 0 {
		return fmt.Errorf("checkpoint: %d PCM noise draws without a noise amplitude", d.NoiseDraws)
	}
	if d.Engine.Now < 0 || d.Engine.Now > d.Horizon {
		return fmt.Errorf("checkpoint: clock %v outside [0, %v]", d.Engine.Now, d.Horizon)
	}
	if len(d.Engine.TaskNext) != 1 {
		return fmt.Errorf("checkpoint: %d engine tasks, harness runs schedule exactly 1", len(d.Engine.TaskNext))
	}
	if d.Faults != nil {
		if err := d.Faults.Validate(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	if (d.Faults == nil) != (d.FaultSet == nil) {
		return fmt.Errorf("checkpoint: fault plan and fault state presence disagree")
	}
	if len(d.SockPCM) != d.System.Sockets {
		return fmt.Errorf("checkpoint: %d socket PCM states for %d sockets", len(d.SockPCM), d.System.Sockets)
	}
	if (d.TraceInterval > 0) != (d.Recorder != nil) {
		return fmt.Errorf("checkpoint: trace interval and recorder presence disagree")
	}
	if !d.HasObs && (len(d.Registry) > 0 || d.RunObs != nil || d.DecisionObs != nil) {
		return fmt.Errorf("checkpoint: observer state present without an observer")
	}
	if d.HasObs && d.RunObs == nil {
		return fmt.Errorf("checkpoint: observer armed but no sampler state")
	}
	return nil
}
