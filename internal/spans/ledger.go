// Energy-attribution ledger: integrates uncore power under
// sample-and-hold and decomposes every joule into baseline (the
// frequency-independent floor the hardware always pays), useful (the
// dynamic power a traffic-matched uncore frequency would have drawn)
// and waste (the dynamic power spent running the uncore faster than
// the observed traffic needed — the quantity the paper's MDFS loop
// exists to reclaim).
package spans

import (
	"math"
	"time"
)

// PowerModel is the uncore decomposition the ledger integrates under.
// It mirrors power.UncoreParams plus the bandwidth model that maps
// traffic back to the minimum relative uncore frequency able to serve
// it (node.Config.BWAt inverted).
type PowerModel struct {
	// BaseWatts, DynMaxWatts, TrafficWattsPerGBs are the socket uncore
	// power parameters (power.UncoreParams).
	BaseWatts          float64
	DynMaxWatts        float64
	TrafficWattsPerGBs float64

	// PeakGBs is the socket's peak bandwidth at maximum uncore
	// frequency; FloorFrac the fraction still available at rel → 0.
	// Together they invert BWAt: the relative frequency needed to
	// serve traffic T is (T/Peak − floor) / (1 − floor).
	PeakGBs   float64
	FloorFrac float64

	// RelMin is the lowest reachable relative frequency
	// (UncoreMinGHz / UncoreMaxGHz): below it the hardware cannot go,
	// so dynamic power down to RelMin² is not attributable waste.
	RelMin float64
}

// relNeed returns the minimum feasible relative uncore frequency that
// serves trafficGBs, clamped to [RelMin, 1].
func (m PowerModel) relNeed(trafficGBs float64) float64 {
	if trafficGBs < 0 {
		trafficGBs = 0
	}
	need := 0.0
	if m.PeakGBs > 0 && m.FloorFrac < 1 {
		need = (trafficGBs/m.PeakGBs - m.FloorFrac) / (1 - m.FloorFrac)
	}
	if need < m.RelMin {
		need = m.RelMin
	}
	if need > 1 {
		need = 1
	}
	return need
}

// Decompose splits the socket's uncore draw at relFreq with trafficGBs
// into baseline, useful and waste watts. The identity
//
//	baseline + useful + waste == Total(relFreq, trafficGBs)
//
// holds exactly up to one floating-point rounding per term (the ledger
// invariant test pins it to ulp scale).
func (m PowerModel) Decompose(relFreq, trafficGBs float64) (baselineW, usefulW, wasteW float64) {
	if relFreq < 0 {
		relFreq = 0
	} else if relFreq > 1 {
		relFreq = 1
	}
	if trafficGBs < 0 {
		trafficGBs = 0
	}
	relUse := m.relNeed(trafficGBs)
	if relUse > relFreq {
		// The uncore is running *below* what the traffic nominally
		// needs (queuing absorbs it); nothing is wasted.
		relUse = relFreq
	}
	baselineW = m.BaseWatts
	usefulW = m.DynMaxWatts*relUse*relUse + m.TrafficWattsPerGBs*trafficGBs
	wasteW = m.DynMaxWatts * (relFreq*relFreq - relUse*relUse)
	if wasteW < 0 {
		wasteW = 0
	}
	return baselineW, usefulW, wasteW
}

// Total returns the modelled uncore watts (identical formula to
// power.UncoreParams.Power).
func (m PowerModel) Total(relFreq, trafficGBs float64) float64 {
	if relFreq < 0 {
		relFreq = 0
	} else if relFreq > 1 {
		relFreq = 1
	}
	if trafficGBs < 0 {
		trafficGBs = 0
	}
	return m.BaseWatts + m.DynMaxWatts*relFreq*relFreq + m.TrafficWattsPerGBs*trafficGBs
}

// EnergyAttr is one attribution bucket's integrated joules.
type EnergyAttr struct {
	BaselineJ float64
	UsefulJ   float64
	WasteJ    float64
	// TotalJ integrates the simulation's actual uncore watts (not the
	// sum of the three parts), so Balance() is a real invariant check
	// rather than a tautology.
	TotalJ float64
	// Seconds is the attributed wall (virtual) time × sockets.
	Seconds float64
}

// Accumulate integrates one step of dt seconds: the decomposed watts
// go to their buckets and totalW — the simulation's independently
// computed actual — to TotalJ, keeping Imbalance a real check. It is
// the exported face of add for integrators outside the tracer (the
// cluster engine's fleet waste ledger).
func (e *EnergyAttr) Accumulate(dt, baseW, usefulW, wasteW, totalW float64) {
	e.add(dt, baseW, usefulW, wasteW, totalW)
}

// Merge folds another bucket into e (canonical-order fleet reduction).
func (e *EnergyAttr) Merge(o EnergyAttr) { e.merge(o) }

// Balanced reports whether the decomposition matches the
// independently integrated total within tolUlps ulps of TotalJ.
func (e EnergyAttr) Balanced(tolUlps float64) bool {
	return e.Imbalance() <= tolUlps*ulp(e.TotalJ)
}

// add accumulates one integration step.
func (e *EnergyAttr) add(dt, baseW, usefulW, wasteW, totalW float64) {
	e.BaselineJ += baseW * dt
	e.UsefulJ += usefulW * dt
	e.WasteJ += wasteW * dt
	e.TotalJ += totalW * dt
	e.Seconds += dt
}

// merge folds another bucket into e.
func (e *EnergyAttr) merge(o EnergyAttr) {
	e.BaselineJ += o.BaselineJ
	e.UsefulJ += o.UsefulJ
	e.WasteJ += o.WasteJ
	e.TotalJ += o.TotalJ
	e.Seconds += o.Seconds
}

// SumJ returns baseline + useful + waste.
func (e EnergyAttr) SumJ() float64 { return e.BaselineJ + e.UsefulJ + e.WasteJ }

// Imbalance returns |sum − total| — how far the decomposition drifts
// from the independently integrated total.
func (e EnergyAttr) Imbalance() float64 { return math.Abs(e.SumJ() - e.TotalJ) }

// WasteFrac returns waste as a fraction of total uncore energy
// (0 when no energy was attributed).
func (e EnergyAttr) WasteFrac() float64 {
	if e.TotalJ <= 0 {
		return 0
	}
	return e.WasteJ / e.TotalJ
}

// WindowEnergy is one closed window's attribution.
type WindowEnergy struct {
	Window ID
	Index  int
	Energy EnergyAttr
}

// PhaseEnergy is one workload phase's attribution.
type PhaseEnergy struct {
	Name   string
	Energy EnergyAttr
}

// TenantEnergy is one tenant's share of the uncore attribution in a
// co-located run.
type TenantEnergy struct {
	Name   string
	Energy EnergyAttr
}

// Ledger accumulates the decomposition at every open attribution
// level. It is owned by a Tracer and advanced from its hooks; the
// zero value is ready to use.
type Ledger struct {
	run      EnergyAttr
	window   EnergyAttr
	windowID ID
	windowIx int
	decision EnergyAttr
	decID    ID

	windows []WindowEnergy

	phase      string
	phaseAttr  map[string]*EnergyAttr
	phaseOrder []string

	// Tenant split (co-located runs): tenantW is a live, caller-owned
	// weight slice the workload multiplexer mutates in place each step;
	// every accumulation also lands in the per-tenant buckets,
	// proportional to the current weights.
	tenantNames []string
	tenantW     []float64
	tenantAttr  []EnergyAttr
}

func (l *Ledger) reset() {
	windows := l.windows[:0] // keep a Reserve()d arena across reset
	*l = Ledger{}
	l.windows = windows
}

// setTenantSplit installs the tenant names and live weight slice.
func (l *Ledger) setTenantSplit(names []string, weights []float64) {
	l.tenantNames = names
	l.tenantW = weights
	l.tenantAttr = make([]EnergyAttr, len(names))
}

func (l *Ledger) openWindow(id ID) {
	l.window = EnergyAttr{}
	l.windowID = id
}

func (l *Ledger) closeWindow() EnergyAttr {
	e := l.window
	if l.windowID != 0 {
		l.windows = append(l.windows, WindowEnergy{Window: l.windowID, Index: l.windowIx, Energy: e})
		l.windowIx++
	}
	l.window = EnergyAttr{}
	l.windowID = 0
	return e
}

func (l *Ledger) openDecision(id ID) {
	l.decision = EnergyAttr{}
	l.decID = id
}

func (l *Ledger) closeDecision() EnergyAttr {
	e := l.decision
	l.decision = EnergyAttr{}
	l.decID = 0
	return e
}

func (l *Ledger) setPhase(name string) {
	l.phase = name
}

func (l *Ledger) accumulate(dt, baseW, usefulW, wasteW, totalW float64) {
	l.run.add(dt, baseW, usefulW, wasteW, totalW)
	if l.windowID != 0 {
		l.window.add(dt, baseW, usefulW, wasteW, totalW)
	}
	if l.decID != 0 {
		l.decision.add(dt, baseW, usefulW, wasteW, totalW)
	}
	if l.phase != "" {
		if l.phaseAttr == nil {
			l.phaseAttr = make(map[string]*EnergyAttr, 8)
		}
		a := l.phaseAttr[l.phase]
		if a == nil {
			a = &EnergyAttr{}
			l.phaseAttr[l.phase] = a
			l.phaseOrder = append(l.phaseOrder, l.phase)
		}
		a.add(dt, baseW, usefulW, wasteW, totalW)
	}
	if len(l.tenantW) > 0 {
		var sum float64
		for _, w := range l.tenantW {
			sum += w
		}
		even := 1 / float64(len(l.tenantW))
		for i, w := range l.tenantW {
			frac := even
			if sum > 0 {
				frac = w / sum
			}
			l.tenantAttr[i].add(dt*frac, baseW, usefulW, wasteW, totalW)
		}
	}
}

// Run returns the whole-run attribution.
func (l *Ledger) Run() EnergyAttr {
	if l == nil {
		return EnergyAttr{}
	}
	return l.run
}

// Windows returns every closed window's attribution in order.
func (l *Ledger) Windows() []WindowEnergy {
	if l == nil {
		return nil
	}
	return l.windows
}

// Phases returns per-workload-phase attribution in first-seen order.
func (l *Ledger) Phases() []PhaseEnergy {
	if l == nil {
		return nil
	}
	out := make([]PhaseEnergy, 0, len(l.phaseOrder))
	for _, name := range l.phaseOrder {
		out = append(out, PhaseEnergy{Name: name, Energy: *l.phaseAttr[name]})
	}
	return out
}

// Tenants returns per-tenant uncore attribution in split order (empty
// unless the run was co-located and a tenant split was installed).
func (l *Ledger) Tenants() []TenantEnergy {
	if l == nil || len(l.tenantNames) == 0 {
		return nil
	}
	out := make([]TenantEnergy, 0, len(l.tenantNames))
	for i, name := range l.tenantNames {
		out = append(out, TenantEnergy{Name: name, Energy: l.tenantAttr[i]})
	}
	return out
}

// Balanced reports whether every closed window (and the run total)
// satisfies baseline + useful + waste == total within tol ulps of the
// window's total — the ledger invariant.
func (l *Ledger) Balanced(tolUlps float64) bool {
	if l == nil {
		return true
	}
	check := func(e EnergyAttr) bool {
		return e.Imbalance() <= tolUlps*ulp(e.TotalJ)
	}
	if !check(l.run) {
		return false
	}
	for _, w := range l.windows {
		if !check(w.Energy) {
			return false
		}
	}
	return true
}

// ulp returns the unit-in-the-last-place spacing at |x| (minimum one
// smallest subnormal so a zero total still admits exact balance).
func ulp(x float64) float64 {
	x = math.Abs(x)
	u := math.Nextafter(x, math.Inf(1)) - x
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return u
}

// DefaultBalanceUlps is the per-sample rounding allowance used by the
// invariant tests and spanlint: each integration step contributes at
// most ~4 roundings, so N samples admit ~4N ulps of drift. Callers
// scale by their sample count; this is the per-sample factor.
const DefaultBalanceUlps = 4.0

// BalanceTolUlps returns the ulp tolerance for a bucket integrated
// from n samples.
func BalanceTolUlps(n int) float64 {
	if n < 1 {
		n = 1
	}
	return DefaultBalanceUlps * float64(n)
}

// StepsIn returns how many integration steps of dt fit in d (helper
// for sizing balance tolerances from a run horizon).
func StepsIn(d, dt time.Duration) int {
	if dt <= 0 {
		return 0
	}
	return int(d / dt)
}
