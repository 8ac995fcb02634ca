// Package faults is the deterministic fault-injection layer for the
// simulated node's telemetry and control devices. A Plan — parsed from
// JSON or picked from a named preset — schedules faults against the
// MSR register space, the PCM throughput monitors and the RAPL energy
// counters (addressed through their MSR registers). Each fault has a
// class, an onset, a duration and a per-read rate, and every
// probabilistic decision draws from a seeded generator, so a given
// (plan, seed, workload seed) triple reproduces the exact same failure
// sequence on every run.
//
// Fault classes model what production telemetry actually does when it
// misbehaves (the DCGM-fallback machinery in GPU exporters exists for
// the same reasons):
//
//   - error: the read returns an error (EACCES after permission loss,
//     transient driver failures);
//   - stall: the read succeeds but consumes virtual latency (a hung
//     hwmon read, an IPI that waits on a sleeping core);
//   - stale: the read repeats the last value (a frozen counter);
//   - wild:  the read returns a corrupted value (NaN, negative, a
//     wrapped or bit-flipped counter);
//   - loss:  permanent error from onset on (device unbound, daemon
//     demoted out of its capability).
//
// When no plan is armed the wrappers are never installed and the
// simulated devices behave bit-identically to the seed implementation.
package faults

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// ErrInjected is the root of every injected failure.
var ErrInjected = errors.New("faults: injected failure")

// Class identifies a fault behaviour.
type Class string

// Fault classes.
const (
	ClassError Class = "error"
	ClassStall Class = "stall"
	ClassStale Class = "stale"
	ClassWild  Class = "wild"
	ClassLoss  Class = "loss"
)

// Target identifies the device surface a fault applies to.
type Target string

// Fault targets. TargetRAPL selects only the RAPL register reads on
// the MSR device (energy counters, power unit, power info); TargetMSR
// selects every other register (uncore limits, fixed counters).
const (
	TargetPCM  Target = "pcm"
	TargetMSR  Target = "msr"
	TargetRAPL Target = "rapl"
)

// Fault schedules one fault against one target.
type Fault struct {
	Target Target `json:"target"`
	Class  Class  `json:"class"`
	// OnsetS is when the fault window opens, in virtual seconds.
	OnsetS float64 `json:"onset_s"`
	// DurationS closes the window after this many seconds; <= 0 keeps
	// it open to the end of the run (loss faults ignore it and are
	// always permanent).
	DurationS float64 `json:"duration_s,omitempty"`
	// Rate is the per-read probability of injection inside the window;
	// <= 0 or >= 1 means every read (loss is always every read).
	Rate float64 `json:"rate,omitempty"`
	// StallMS is the virtual latency a stall fault adds per read
	// (default 500 ms).
	StallMS float64 `json:"stall_ms,omitempty"`
}

// validate reports schema errors.
func (f Fault) validate() error {
	switch f.Target {
	case TargetPCM, TargetMSR, TargetRAPL:
	default:
		return fmt.Errorf("faults: unknown target %q", f.Target)
	}
	switch f.Class {
	case ClassError, ClassStall, ClassStale, ClassWild, ClassLoss:
	default:
		return fmt.Errorf("faults: unknown class %q", f.Class)
	}
	switch {
	case f.OnsetS < 0:
		return fmt.Errorf("faults: negative onset %v", f.OnsetS)
	case f.Rate < 0 || f.Rate > 1:
		return fmt.Errorf("faults: rate %v outside [0,1]", f.Rate)
	case f.StallMS < 0:
		return fmt.Errorf("faults: negative stall %v ms", f.StallMS)
	}
	return nil
}

// active reports whether the fault window covers virtual time now.
func (f Fault) active(now time.Duration) bool {
	onset := secs(f.OnsetS)
	if now < onset {
		return false
	}
	if f.Class == ClassLoss || f.DurationS <= 0 {
		return true
	}
	return now < onset+secs(f.DurationS)
}

// rate returns the effective per-read injection probability.
func (f Fault) rate() float64 {
	if f.Class == ClassLoss || f.Rate <= 0 || f.Rate >= 1 {
		return 1
	}
	return f.Rate
}

// stall returns the latency a stall fault injects.
func (f Fault) stall() time.Duration {
	if f.StallMS <= 0 {
		return 500 * time.Millisecond
	}
	return time.Duration(f.StallMS * float64(time.Millisecond))
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Plan is a complete fault schedule for one run.
type Plan struct {
	// Name labels the plan in reports (presets fill it in).
	Name string `json:"name,omitempty"`
	// Seed drives every probabilistic injection decision (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Faults is the schedule; an empty list is an unarmed plan.
	Faults []Fault `json:"faults"`
}

// Armed reports whether the plan injects anything. A nil plan is
// unarmed.
func (p *Plan) Armed() bool { return p != nil && len(p.Faults) > 0 }

// Validate reports schema errors across the schedule.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, f := range p.Faults {
		if err := f.validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// String summarises the plan for logs.
func (p *Plan) String() string {
	if !p.Armed() {
		return "faults: unarmed"
	}
	name := p.Name
	if name == "" {
		name = "custom"
	}
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		w := "∞"
		if f.Class != ClassLoss && f.DurationS > 0 {
			w = fmt.Sprintf("%gs", f.DurationS)
		}
		parts[i] = fmt.Sprintf("%s/%s@%gs+%s", f.Target, f.Class, f.OnsetS, w)
	}
	return fmt.Sprintf("plan %s (seed %d): %s", name, p.seed(), strings.Join(parts, ", "))
}

func (p *Plan) seed() int64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// targets reports whether any fault addresses target.
func (p *Plan) targets(t Target) bool {
	for _, f := range p.Faults {
		if f.Target == t {
			return true
		}
	}
	return false
}

// Parse decodes a plan from JSON, rejecting unknown fields and invalid
// schedules.
func Parse(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("faults: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load resolves spec as a preset name first, then as a path to a JSON
// plan file.
func Load(spec string) (*Plan, error) {
	if p, ok := Preset(spec); ok {
		return p, nil
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, fmt.Errorf("faults: %q is neither a preset (%s) nor a readable plan file: %w",
			spec, strings.Join(PresetNames(), ", "), err)
	}
	defer f.Close()
	return Parse(f)
}

// presets are the named fault schedules shipped with the repo; see
// docs/FAULTS.md for what each one demonstrates.
var presets = map[string]Plan{
	"pcm-flaky": {Faults: []Fault{
		{Target: TargetPCM, Class: ClassError, OnsetS: 3, DurationS: 30, Rate: 0.3},
		{Target: TargetPCM, Class: ClassStall, OnsetS: 3, DurationS: 30, Rate: 0.1, StallMS: 60},
	}},
	"pcm-outage": {Faults: []Fault{
		{Target: TargetPCM, Class: ClassError, OnsetS: 6, DurationS: 10},
	}},
	"pcm-loss": {Faults: []Fault{
		{Target: TargetPCM, Class: ClassLoss, OnsetS: 0},
	}},
	"pcm-stall": {Faults: []Fault{
		{Target: TargetPCM, Class: ClassStall, OnsetS: 4, DurationS: 20, StallMS: 400},
	}},
	"pcm-stale": {Faults: []Fault{
		{Target: TargetPCM, Class: ClassStale, OnsetS: 5, DurationS: 12},
	}},
	"pcm-wild": {Faults: []Fault{
		{Target: TargetPCM, Class: ClassWild, OnsetS: 3, DurationS: 25, Rate: 0.25},
	}},
	"msr-flaky": {Faults: []Fault{
		{Target: TargetMSR, Class: ClassError, OnsetS: 2, DurationS: 25, Rate: 0.2},
	}},
	"rapl-outage": {Faults: []Fault{
		{Target: TargetRAPL, Class: ClassError, OnsetS: 5, DurationS: 10},
	}},
	"chaos": {Faults: []Fault{
		{Target: TargetPCM, Class: ClassError, OnsetS: 2, DurationS: 15, Rate: 0.25},
		{Target: TargetPCM, Class: ClassStall, OnsetS: 2, DurationS: 15, Rate: 0.1, StallMS: 60},
		{Target: TargetPCM, Class: ClassError, OnsetS: 20, DurationS: 8},
		{Target: TargetPCM, Class: ClassWild, OnsetS: 32, DurationS: 10, Rate: 0.2},
		{Target: TargetMSR, Class: ClassError, OnsetS: 6, DurationS: 12, Rate: 0.1},
		{Target: TargetRAPL, Class: ClassError, OnsetS: 10, DurationS: 6, Rate: 0.5},
	}},
}

// Preset returns a copy of the named preset plan.
func Preset(name string) (*Plan, bool) {
	p, ok := presets[name]
	if !ok {
		return nil, false
	}
	p.Name = name
	p.Faults = append([]Fault(nil), p.Faults...)
	return &p, true
}

// PresetNames lists the shipped presets, sorted.
func PresetNames() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
