package core

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/pcm"
)

var _ governor.Governor = (*MAGUS)(nil)

func TestPredictTrend(t *testing.T) {
	cases := []struct {
		name     string
		hist     []float64
		derivLen int
		want     Trend
	}{
		{"sharp rise", []float64{10, 10, 300}, 1, TrendUp},
		{"sharp fall", []float64{300, 300, 10}, 1, TrendDown},
		{"flat", []float64{100, 101, 100}, 1, TrendFlat},
		{"slow rise below inc", []float64{100, 105, 110}, 1, TrendFlat},
		{"fall below dec magnitude", []float64{100, 100, 60}, 1, TrendFlat},
		{"rise above inc but fall-sized", []float64{100, 100, 130}, 1, TrendUp},
		{"short history", []float64{100}, 1, TrendFlat},
		{"empty", nil, 1, TrendFlat},
		{"longer deriv span", []float64{10, 100, 200, 250}, 3, TrendUp},
		{"shortest span wins", []float64{200, 100, 300, 230}, 3, TrendDown}, // the fresh -70 beats stale rises
		{"old fall still visible", []float64{180, 180, 12, 12, 12}, 3, TrendDown},
		{"gentle ramp stays flat", []float64{100, 104, 108, 112}, 3, TrendFlat},
	}
	for _, c := range cases {
		if got := PredictTrend(c.hist, c.derivLen, 20, 50); got != c.want {
			t.Errorf("%s: PredictTrend = %v, want %v", c.name, got, c.want)
		}
	}
}

// Property: PredictTrend matches an independent reference
// implementation of the strongest-span rule.
func TestPredictTrendProperties(t *testing.T) {
	ref := func(vals []float64, derivLen int, inc, dec float64) Trend {
		n := len(vals) - 1
		if n < 1 {
			return TrendFlat
		}
		if derivLen > n {
			derivLen = n
		}
		for span := 1; span <= derivLen; span++ {
			d := (vals[n] - vals[n-span]) / float64(span)
			if d > inc {
				return TrendUp
			}
			if d < -dec {
				return TrendDown
			}
		}
		return TrendFlat
	}
	prop := func(vals []float64, derivLen8 uint8) bool {
		for i, v := range vals {
			if v != v || v < 0 { // NaN or negative: clamp
				vals[i] = 0
			}
			if v > 1e6 {
				vals[i] = 1e6
			}
		}
		derivLen := int(derivLen8%3) + 1
		return PredictTrend(vals, derivLen, 20, 50) == ref(vals, derivLen, 20, 50)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a monotone non-decreasing history never predicts down, and
// a monotone non-increasing history never predicts up.
func TestPredictTrendMonotonicity(t *testing.T) {
	prop := func(deltas []uint16, derivLen8 uint8) bool {
		vals := make([]float64, len(deltas)+1)
		for i, d := range deltas {
			vals[i+1] = vals[i] + float64(d%1000)
		}
		derivLen := int(derivLen8%4) + 1
		if PredictTrend(vals, derivLen, 6, 15) == TrendDown {
			return false
		}
		rev := make([]float64, len(vals))
		for i, v := range vals {
			rev[len(vals)-1-i] = v
		}
		return PredictTrend(rev, derivLen, 6, 15) != TrendUp
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHighFrequency(t *testing.T) {
	cases := []struct {
		log  []int
		want bool
	}{
		{[]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, false},
		{[]int{1, 1, 1, 1, 0, 0, 0, 0, 0, 0}, true},  // 0.4 == threshold
		{[]int{1, 1, 1, 0, 0, 0, 0, 0, 0, 0}, false}, // 0.3 < threshold
		{[]int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, true},
		{nil, false},
	}
	for i, c := range cases {
		if got := HighFrequency(c.log, 0.4); got != c.want {
			t.Errorf("case %d: HighFrequency = %v, want %v", i, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.IncThresholdGBs = 0 },
		func(c *Config) { c.DecThresholdGBs = -1 },
		func(c *Config) { c.HighFreqThreshold = 0 },
		func(c *Config) { c.HighFreqThreshold = 1.5 },
		func(c *Config) { c.Window = 1 },
		func(c *Config) { c.DerivLen = 0 },
		func(c *Config) { c.DerivLen = 10 },
		func(c *Config) { c.Interval = 0 },
		func(c *Config) { c.Interval = -time.Second },
		func(c *Config) { c.InvocationTime = 0 },
		func(c *Config) { c.InvocationTime = -time.Millisecond },
		func(c *Config) { c.WarmupCycles = 0 },
		func(c *Config) { c.WarmupCycles = -1 },
		func(c *Config) { c.BusyCores = -1 },
		func(c *Config) { c.ExtraWatts = -1 },
	}
	for i, mut := range bads {
		c := DefaultConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}

// testEnv wires MAGUS to a bare msr.Space and a scripted throughput
// source so decision behaviour can be driven sample by sample.
type testEnv struct {
	space   *msr.Space
	env     *governor.Env
	traffic float64 // cumulative GB fed to PCM
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	te := &testEnv{space: msr.NewSpace(2, 4)}
	te.env = &governor.Env{
		Dev:          te.space,
		PCM:          pcm.New(func() float64 { return te.traffic }),
		Sockets:      2,
		CPUs:         8,
		FirstCPU:     te.space.FirstCPUOf,
		UncoreMinGHz: 0.8,
		UncoreMaxGHz: 2.2,
	}
	return te
}

// feed advances the scripted signal so the next PCM read (0.3 s later)
// observes gbs.
func (te *testEnv) feed(gbs float64) { te.traffic += gbs * 0.3 }

// limitGHz decodes the current uncore max limit on socket 0.
func (te *testEnv) limitGHz() float64 {
	maxHz, _ := msr.DecodeUncoreLimit(te.space.Peek(0, msr.UncoreRatioLimit))
	return maxHz / 1e9
}

// runCycles invokes MAGUS n times at the 0.3 s cadence, feeding gbs[i]
// before cycle i.
func runCycles(te *testEnv, m *MAGUS, now *time.Duration, gbs ...float64) {
	for _, g := range gbs {
		te.feed(g)
		*now += 300 * time.Millisecond
		m.Invoke(*now)
	}
}

func TestMAGUSWarmupThenMax(t *testing.T) {
	te := newTestEnv(t)
	cfg := DefaultConfig()
	cfg.WarmupCycles = 3
	m := New(cfg)
	if err := m.Attach(te.env); err != nil {
		t.Fatal(err)
	}
	// Per §4, the idle/default limit is the minimum during warm-up.
	if got := te.limitGHz(); got != 0.8 {
		t.Fatalf("warm-up limit = %v GHz, want 0.8", got)
	}
	var now time.Duration
	runCycles(te, m, &now, 50, 50)
	if got := te.limitGHz(); got != 0.8 {
		t.Fatalf("limit before warm-up end = %v", got)
	}
	runCycles(te, m, &now, 50)
	if got := te.limitGHz(); got != 2.2 {
		t.Fatalf("limit after warm-up = %v GHz, want 2.2", got)
	}
	if s := m.Stats(); s.WarmupCycles != 3 || s.Invocations != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMAGUSWarmupAtMaxOption(t *testing.T) {
	te := newTestEnv(t)
	cfg := DefaultConfig()
	cfg.WarmupAtMax = true
	m := New(cfg)
	if err := m.Attach(te.env); err != nil {
		t.Fatal(err)
	}
	if got := te.limitGHz(); got != 2.2 {
		t.Fatalf("WarmupAtMax limit = %v GHz, want 2.2", got)
	}
}

func TestMAGUSScalesDownOnSharpDrop(t *testing.T) {
	te := newTestEnv(t)
	cfg := DefaultConfig()
	cfg.WarmupCycles = 2
	m := New(cfg)
	m.Attach(te.env)
	var now time.Duration
	runCycles(te, m, &now, 200, 200) // warm-up
	runCycles(te, m, &now, 200, 200) // steady high
	if te.limitGHz() != 2.2 {
		t.Fatalf("steady limit = %v", te.limitGHz())
	}
	runCycles(te, m, &now, 30) // sharp drop: d = -170
	if got := te.limitGHz(); got != 0.8 {
		t.Fatalf("limit after drop = %v GHz, want 0.8", got)
	}
	runCycles(te, m, &now, 30, 30) // stays low, no churn
	if got := te.limitGHz(); got != 0.8 {
		t.Fatalf("limit at low steady = %v", got)
	}
}

func TestMAGUSScalesUpOnSharpRise(t *testing.T) {
	te := newTestEnv(t)
	cfg := DefaultConfig()
	cfg.WarmupCycles = 2
	m := New(cfg)
	m.Attach(te.env)
	var now time.Duration
	// Sustained high, then a steep sustained drop scales down.
	runCycles(te, m, &now, 200, 200, 200, 200, 200, 20, 20)
	if te.limitGHz() != 0.8 {
		t.Fatalf("setup: limit = %v, want 0.8 after drop", te.limitGHz())
	}
	// Once the low level has settled, a steep rise scales back up.
	runCycles(te, m, &now, 20, 190)
	if got := te.limitGHz(); got != 2.2 {
		t.Fatalf("limit after rise = %v GHz, want 2.2", got)
	}
}

func TestMAGUSHighFrequencyPinsMax(t *testing.T) {
	te := newTestEnv(t)
	cfg := DefaultConfig()
	cfg.WarmupCycles = 2
	m := New(cfg)
	m.Attach(te.env)
	var now time.Duration
	runCycles(te, m, &now, 100, 100) // warm-up
	// Violent alternation: the prediction flips nearly every cycle.
	runCycles(te, m, &now, 300, 20, 300, 20, 300, 20, 300, 20, 300)
	if !m.HighFreqActive() {
		t.Fatal("high-frequency state not detected under alternation")
	}
	if got := te.limitGHz(); got != 2.2 {
		t.Fatalf("limit during high-frequency phase = %v GHz, want pinned 2.2", got)
	}
	if s := m.Stats(); s.Overrides == 0 {
		t.Fatalf("no overrides recorded: %+v", s)
	}
	// Prediction keeps logging during high-frequency state (§3.2).
	evBefore := m.Stats().TuneEvents
	runCycles(te, m, &now, 20)
	if m.Stats().TuneEvents <= evBefore {
		t.Fatal("tune events not logged during high-frequency state")
	}
	if m.Stats().Overrides == 0 {
		t.Fatal("override during high-frequency state not counted")
	}
	// Calm returns: the rate decays and scaling resumes.
	for i := 0; i < 14; i++ {
		runCycles(te, m, &now, 100)
	}
	if m.HighFreqActive() {
		t.Fatal("high-frequency state stuck after calm")
	}
}

func TestMAGUSPCMFailureFailsSafe(t *testing.T) {
	te := newTestEnv(t)
	cfg := DefaultConfig()
	cfg.WarmupCycles = 1
	m := New(cfg)
	m.Attach(te.env)
	var now time.Duration
	runCycles(te, m, &now, 100)
	runCycles(te, m, &now, 10) // not enough history → flat; limit stays max
	// Break the counter: PCM errors on backwards movement.
	te.traffic -= 1000
	now += 300 * time.Millisecond
	m.Invoke(now)
	if got := te.limitGHz(); got != 2.2 {
		t.Fatalf("limit after monitor failure = %v GHz, want fail-safe max", got)
	}
}

func TestMAGUSDecisionTrace(t *testing.T) {
	te := newTestEnv(t)
	cfg := DefaultConfig()
	cfg.WarmupCycles = 1
	m := New(cfg)
	var decisions []Decision
	m.OnDecision(func(d Decision) { decisions = append(decisions, d) })
	m.Attach(te.env)
	var now time.Duration
	runCycles(te, m, &now, 100, 100, 100, 100, 20)
	if len(decisions) != 5 {
		t.Fatalf("got %d decisions", len(decisions))
	}
	if !decisions[0].Warmup {
		t.Fatal("first decision not marked warm-up")
	}
	last := decisions[4]
	if last.Trend != TrendDown || last.TargetGHz != 0.8 {
		t.Fatalf("last decision = %+v, want down/0.8", last)
	}
}

func TestMAGUSChargesOverhead(t *testing.T) {
	te := newTestEnv(t)
	var charged time.Duration
	var cores, watts float64
	te.env.Charge = func(busy time.Duration, c, w float64) {
		charged += busy
		cores, watts = c, w
	}
	m := New(DefaultConfig())
	m.Attach(te.env)
	var now time.Duration
	runCycles(te, m, &now, 100, 100)
	if charged != 200*time.Millisecond {
		t.Fatalf("charged busy = %v, want 200ms over 2 cycles", charged)
	}
	if cores != 0.3 || watts != 0.5 {
		t.Fatalf("cost model = %v cores / %v W", cores, watts)
	}
}

func TestMAGUSMSRWriteErrorKeepsRunning(t *testing.T) {
	te := newTestEnv(t)
	cfg := DefaultConfig()
	cfg.WarmupCycles = 1
	m := New(cfg)
	m.Attach(te.env)
	var now time.Duration
	runCycles(te, m, &now, 200, 200, 200, 200)
	te.space.FailWrites(msr.ErrInjected)
	runCycles(te, m, &now, 20) // down decision, write fails
	if got := te.limitGHz(); got != 2.2 {
		t.Fatalf("limit changed despite write failure: %v", got)
	}
	te.space.FailWrites(nil)
	// The downward trend still holds next cycle, so the write is
	// effectively retried and now succeeds.
	runCycles(te, m, &now, 20)
	if got := te.limitGHz(); got != 0.8 {
		t.Fatalf("limit = %v after write recovery, want 0.8", got)
	}
	// And the runtime keeps scaling normally afterwards.
	runCycles(te, m, &now, 20, 250, 250, 250)
	if got := te.limitGHz(); got != 2.2 {
		t.Fatalf("limit = %v after rise, want 2.2", got)
	}
}

func TestDecisionOutcome(t *testing.T) {
	for _, tc := range []struct {
		d    Decision
		want string
	}{
		{Decision{Missed: true, Warmup: true, Acted: true}, "missed"},
		{Decision{Warmup: true, Acted: true}, "warmup"},
		{Decision{Acted: true}, "acted"},
		{Decision{}, "hold"},
	} {
		if got := tc.d.Outcome(); got != tc.want {
			t.Errorf("%+v: Outcome() = %q, want %q", tc.d, got, tc.want)
		}
	}
}
