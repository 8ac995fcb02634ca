package pcm

import "time"

// State is a monitor's mutable state. The traffic counter is a
// construction input, and a shared noise stream carries its own
// position (Noise.Draws).
type State struct {
	LastGB      float64
	LastAt      time.Duration
	Started     bool
	Invocations uint64
}

// State captures the monitor's baseline and invocation counter.
func (m *Monitor) State() State {
	return State{
		LastGB:      m.lastGB,
		LastAt:      m.lastAt,
		Started:     m.started,
		Invocations: m.invocations,
	}
}

// Restore overwrites the monitor's baseline and invocation counter.
func (m *Monitor) Restore(st State) {
	m.lastGB = st.LastGB
	m.lastAt = st.LastAt
	m.started = st.Started
	m.invocations = st.Invocations
}
