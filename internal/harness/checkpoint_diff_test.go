package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/checkpoint"
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/workload"
)

// diffArtifacts collects every observable byte surface of a run: the
// Result struct, the metrics exposition, the JSONL event stream, the
// Perfetto span export and the telemetry-trace digest. The
// checkpoint/resume contract is that all of them are byte-identical to
// the uninterrupted run's.
type diffArtifacts struct {
	res     Result
	metrics []byte
	events  []byte
	spans   []byte
	traceH  [32]byte
}

func collectArtifacts(t *testing.T, res Result, o *obs.Observer, events *bytes.Buffer, tr *spans.Tracer) diffArtifacts {
	t.Helper()
	a := diffArtifacts{res: res}
	a.res.Traces = nil
	if res.Traces != nil {
		a.traceH = traceHash(t, res)
	}
	if o != nil {
		a.metrics = o.Registry().AppendText(nil)
		a.events = events.Bytes()
	}
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		a.spans = buf.Bytes()
	}
	return a
}

func compareArtifacts(t *testing.T, label string, got, want diffArtifacts) {
	t.Helper()
	if got.res != want.res {
		t.Errorf("%s: Result diverged:\n got  %+v\n want %+v", label, got.res, want.res)
	}
	if !bytes.Equal(got.metrics, want.metrics) {
		t.Errorf("%s: metrics exposition diverged near %s", label, firstDiff(got.metrics, want.metrics))
	}
	if !bytes.Equal(got.events, want.events) {
		t.Errorf("%s: event stream diverged near %s", label, firstDiff(got.events, want.events))
	}
	if !bytes.Equal(got.spans, want.spans) {
		t.Errorf("%s: span export diverged near %s", label, firstDiff(got.spans, want.spans))
	}
	if got.traceH != want.traceH {
		t.Errorf("%s: telemetry traces diverged", label)
	}
}

// diffGovernors enumerates every checkpointable governor family with a
// factory producing identically-configured fresh instances (governors
// are stateful and single-run; resume needs its own).
var diffGovernors = []struct {
	name string
	make func() governor.Governor
}{
	{"magus", func() governor.Governor { return core.New(core.DefaultConfig()) }},
	{"persocket", func() governor.Governor { return core.NewPerSocket(core.DefaultConfig()) }},
	{"ups", func() governor.Governor { return governor.NewUPS(governor.DefaultUPSConfig()) }},
	{"duf", func() governor.Governor { return governor.NewDUF(governor.DefaultDUFConfig()) }},
	{"default", func() governor.Governor { return governor.NewDefault() }},
	{"static", func() governor.Governor { return governor.NewStatic(1.8) }},
}

// TestCheckpointResumeDifferential is the randomized property test
// pinning the tentpole contract: checkpoint a run at an arbitrary
// point, encode, decode, resume — the resumed run's Result, metrics,
// events, telemetry traces and spans must be byte-identical to the
// same run executed without interruption. Seeds, workloads, node
// presets, fault presets, governors and the checkpoint time are all
// drawn from a seeded RNG so every CI run exercises the same matrix;
// the PCM noise amplitude comes from a second seeded RNG, so adding it
// left the other draws unchanged.
func TestCheckpointResumeDifferential(t *testing.T) {
	configs := []func() node.Config{node.IntelA100, node.IntelCPUOnly, node.Intel4A100}
	// A cross-section of the catalog: short programs across the signal
	// shapes (bursty, steady memory-bound, high-frequency alternation,
	// epoch-structured).
	progs := []string{"bfs", "gemm", "srad", "fdtd2d", "particlefilter_float", "unet"}
	// "" = no faults; the rest stress the resilient-sensor state
	// machine, the injector RNG streams and the RAPL-less env path.
	plans := []string{"", "", "pcm-flaky", "pcm-loss", "pcm-stale", "msr-flaky", "rapl-outage", "chaos"}

	trials := 12
	if testing.Short() {
		trials = 4
	}
	// 0 = no noise; 1.5 lets readings clamp at 0.
	amps := []float64{0, 0, 0.05, 0.2, 1.5}

	rng := rand.New(rand.NewSource(20260807))
	noiseRNG := rand.New(rand.NewSource(20261021))
	for trial := 0; trial < trials; trial++ {
		gov := diffGovernors[rng.Intn(len(diffGovernors))]
		tc := diffTrial{
			cfg:      configs[rng.Intn(len(configs))](),
			prog:     mustProg(t, progs[rng.Intn(len(progs))]),
			planName: plans[rng.Intn(len(plans))],
			seed:     rng.Int63n(1 << 32),
			withObs:  rng.Intn(2) == 0,
			makeGov:  gov.make,
		}
		tc.withSpans = rng.Intn(2) == 0
		tc.pcmNoise = amps[noiseRNG.Intn(len(amps))]
		if rng.Intn(2) == 0 {
			tc.traceInterval = 100 * time.Millisecond
		}
		// Workloads never finish before their nominal duration (the
		// node can only slow demand down), so any fraction below 1 is
		// a valid in-flight checkpoint time.
		frac := 0.1 + 0.8*rng.Float64()
		tc.at = time.Duration(frac * float64(tc.prog.NominalDuration()))

		label := fmt.Sprintf("trial%d/%s/%s/%s/faults=%q/noise=%v/obs=%v/spans=%v/at=%v",
			trial, tc.cfg.Name, tc.prog.Name, gov.name, tc.planName, tc.pcmNoise, tc.withObs, tc.withSpans, tc.at)
		t.Run(label, func(t *testing.T) { tc.run(t, label) })
	}

	// A power cap is transparent to checkpointing: the policy beneath it
	// carries the governor state, and resume replays the cap's Attach.
	capped := diffTrial{
		cfg: node.IntelA100(), prog: mustProg(t, "srad"), planName: "pcm-flaky", seed: 5,
		withObs: true, withSpans: true, traceInterval: 100 * time.Millisecond, at: 9 * time.Second,
		makeGov: func() governor.Governor { return governor.WithPowerCap(core.New(core.DefaultConfig()), 400) },
	}
	t.Run("capped-magus", func(t *testing.T) { capped.run(t, "capped-magus") })

	// A noisy run checkpoints like any other: the checkpoint carries the
	// amplitude and the position of the shared noise stream.
	noisy := diffTrial{
		cfg: node.IntelA100(), prog: mustProg(t, "unet"), seed: 7, pcmNoise: 0.2,
		withObs: true, withSpans: true, traceInterval: 100 * time.Millisecond, at: 5 * time.Second,
		makeGov: diffGovernors[0].make,
	}
	t.Run("noisy-magus", func(t *testing.T) {
		noisy.run(t, "noisy-magus")
		clean, err := Run(noisy.cfg, noisy.prog, noisy.makeGov(), Options{Seed: noisy.seed})
		if err != nil {
			t.Fatal(err)
		}
		loud, err := Run(noisy.cfg, noisy.prog, noisy.makeGov(), Options{Seed: noisy.seed, PCMNoise: noisy.pcmNoise})
		if err != nil {
			t.Fatal(err)
		}
		if clean == loud {
			t.Fatal("PCMNoise 0.2 left the result equal to the clean run")
		}
	})
}

// diffTrial is one cell of the checkpoint/resume differential.
type diffTrial struct {
	cfg                node.Config
	prog               *workload.Program
	planName           string
	seed               int64
	pcmNoise           float64
	withObs, withSpans bool
	traceInterval      time.Duration
	at                 time.Duration
	makeGov            func() governor.Governor
}

// run checks that checkpointing the cell at tc.at, encoding, decoding
// and resuming to completion reproduces the uninterrupted run's bytes.
func (tc diffTrial) run(t *testing.T, label string) {
	newOpts := func() (Options, *obs.Observer, *bytes.Buffer, *spans.Tracer) {
		opt := Options{Seed: tc.seed, TraceInterval: tc.traceInterval, PCMNoise: tc.pcmNoise}
		if tc.planName != "" {
			plan, ok := faults.Preset(tc.planName)
			if !ok {
				t.Fatalf("no fault preset %q", tc.planName)
			}
			plan.Seed = tc.seed
			opt.Faults = plan
		}
		var (
			o      *obs.Observer
			events *bytes.Buffer
			tr     *spans.Tracer
		)
		if tc.withObs {
			events = &bytes.Buffer{}
			o = obs.New(obs.NewRegistry(), events)
			opt.Obs = o
		}
		if tc.withSpans {
			tr = spans.New(core.DefaultConfig().Window)
			opt.Spans = tr
		}
		return opt, o, events, tr
	}

	// Reference: the uninterrupted run.
	wantOpt, wantObs, wantEvents, wantTr := newOpts()
	wantRes, err := Run(tc.cfg, tc.prog, tc.makeGov(), wantOpt)
	if err != nil {
		t.Fatal(err)
	}
	want := collectArtifacts(t, wantRes, wantObs, wantEvents, wantTr)

	// Interrupted run: advance to the checkpoint time and capture. Its
	// event prefix stays in this buffer.
	preOpt, _, preEvents, _ := newOpts()
	pre, err := NewSteppable(tc.cfg, tc.prog, tc.makeGov(), preOpt)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := pre.Advance(tc.at); err != nil {
		t.Fatal(err)
	} else if done {
		t.Fatalf("run finished before checkpoint time %v", tc.at)
	}
	data, err := pre.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip through the wire format so the differential also
	// covers the envelope codec.
	blob, err := checkpoint.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}

	// Resume with fresh per-run objects and drive to completion in
	// ragged chunks.
	_, postObs, postEvents, postTr := newOpts()
	res, err := Resume(decoded, ResumeOptions{Gov: tc.makeGov(), Obs: postObs, Spans: postTr})
	if err != nil {
		t.Fatal(err)
	}
	chunks := []time.Duration{
		1300 * time.Millisecond, 7 * time.Millisecond, 2 * time.Second, 333 * time.Millisecond,
	}
	for i := 0; !res.Done(); i++ {
		if _, err := res.Advance(chunks[i%len(chunks)]); err != nil {
			t.Fatal(err)
		}
	}

	got := collectArtifacts(t, res.Result(), postObs, postEvents, postTr)
	if tc.withObs {
		// The event stream splits across the interruption: the original
		// prefix plus the resumed suffix must equal the uninterrupted
		// stream.
		got.events = append(append([]byte(nil), preEvents.Bytes()...), postEvents.Bytes()...)
	}
	compareArtifacts(t, label, got, want)
}

// TestCheckpointChunkedRagged extends the Steppable chunking contract
// with checkpoints at ragged Advance boundaries: the run is repeatedly
// advanced by awkward increments and at every boundary — including
// mid-window and inside fault-degraded periods — it is checkpointed,
// abandoned, and resumed into a fresh Steppable that carries on. The
// final artifacts must still be byte-identical to the single-shot Run.
func TestCheckpointChunkedRagged(t *testing.T) {
	cfg := node.IntelA100()
	prog := mustProg(t, "gemm")
	const seed = 42
	newPlan := func() *faults.Plan {
		plan, ok := faults.Preset("chaos")
		if !ok {
			t.Fatal("no chaos preset")
		}
		plan.Seed = seed
		return plan
	}
	window := core.DefaultConfig().Window

	// Reference: one uninterrupted run with every surface enabled.
	wantEvents := &bytes.Buffer{}
	wantObs := obs.New(obs.NewRegistry(), wantEvents)
	wantTr := spans.New(window)
	wantRes, err := Run(cfg, prog, core.New(core.DefaultConfig()), Options{
		Seed: seed, Faults: newPlan(), Obs: wantObs, Spans: wantTr,
		TraceInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := collectArtifacts(t, wantRes, wantObs, wantEvents, wantTr)

	// Chained run: ragged chunks, a checkpoint/resume hand-over at
	// every boundary. Chunk sizes are deliberately not multiples of the
	// governor interval or the trace interval, so checkpoints land
	// mid-window; the chaos plan keeps several boundaries inside
	// degraded periods.
	chunks := []time.Duration{
		1700 * time.Millisecond, 3 * time.Millisecond, 900 * time.Millisecond,
		2500 * time.Millisecond, 77 * time.Millisecond, 4 * time.Second,
	}
	var eventParts [][]byte
	events := &bytes.Buffer{}
	o := obs.New(obs.NewRegistry(), events)
	tr := spans.New(window)
	st, err := NewSteppable(cfg, prog, core.New(core.DefaultConfig()), Options{
		Seed: seed, Faults: newPlan(), Obs: o, Spans: tr,
		TraceInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hops := 0
	for i := 0; !st.Done(); i++ {
		done, err := st.Advance(chunks[i%len(chunks)])
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		data, err := st.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := checkpoint.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := checkpoint.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		eventParts = append(eventParts, append([]byte(nil), events.Bytes()...))
		events = &bytes.Buffer{}
		o = obs.New(obs.NewRegistry(), events)
		tr = spans.New(window)
		st, err = Resume(decoded, ResumeOptions{
			Gov: core.New(core.DefaultConfig()), Obs: o, Spans: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		hops++
	}
	if hops < 5 {
		t.Fatalf("only %d checkpoint hand-overs; chunk schedule too coarse for the contract", hops)
	}

	got := collectArtifacts(t, st.Result(), o, events, tr)
	got.events = bytes.Join(append(eventParts, events.Bytes()), nil)
	compareArtifacts(t, "chained", got, want)
}

// TestCheckpointErrors pins the refusal paths: finished runs,
// non-catalog programs and mismatched resume options must error loudly instead of
// producing a silently wrong run.
func TestCheckpointErrors(t *testing.T) {
	cfg := node.IntelA100()
	prog := mustProg(t, "bfs")

	t.Run("finished-run", func(t *testing.T) {
		st, err := NewSteppable(cfg, prog, governor.NewDefault(), Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for !st.Done() {
			if _, err := st.Advance(10 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Checkpoint(); err == nil {
			t.Fatal("checkpoint of a finished run succeeded")
		}
	})

	t.Run("non-catalog-program", func(t *testing.T) {
		p := &workload.Program{
			Name:   "bfs", // catalog name, different object
			Phases: []workload.Phase{{Name: "x", Duration: time.Second, Mem: 0.1, Beta: 0.1, CPUBusyCores: 1}},
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		st, err := NewSteppable(cfg, p, governor.NewDefault(), Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Checkpoint(); err == nil {
			t.Fatal("checkpoint of a non-catalog program succeeded")
		}
	})

	t.Run("resume-mismatches", func(t *testing.T) {
		data, err := Checkpoint(cfg, prog, core.New(core.DefaultConfig()), Options{Seed: 3}, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(data, ResumeOptions{}); err == nil {
			t.Fatal("resume without a governor succeeded")
		}
		if _, err := Resume(data, ResumeOptions{Gov: governor.NewDefault()}); err == nil {
			t.Fatal("resume with wrong governor name succeeded")
		}
		if _, err := Resume(data, ResumeOptions{
			Gov: core.New(core.DefaultConfig()), Obs: obs.New(obs.NewRegistry(), nil),
		}); err == nil {
			t.Fatal("resume with unexpected observer succeeded")
		}
		if _, err := Resume(data, ResumeOptions{
			Gov: core.New(core.DefaultConfig()), Spans: spans.New(core.DefaultConfig().Window),
		}); err == nil {
			t.Fatal("resume with unexpected tracer succeeded")
		}
	})
}
