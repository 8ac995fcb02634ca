package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/spear-repro/magus/internal/cluster"
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/serve"
	"github.com/spear-repro/magus/internal/sim"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/workload"
)

// The traced profile pushes a workload's own cells through every layer
// group: the hand-wired tick path, each observer sink, the fleet
// engine, the serve daemon and the batch pool. Every group reports the
// same metric names on every workload, measured on that workload's
// cells; sizes says how many cells each group replays.

// profileSizes says how many of a workload's cells each group replays
// (-1 = all of them).
type profileSizes struct {
	tick      int // hand-wired tick-path replicas
	sinkCells int // cells rerun under each sink set
	sinkReps  int // repetitions per (cell, sink set); medians are kept
	fleet     int // cells run as fleet members
	serve     int // serve sessions driven over HTTP
	batch     int // cells run through harness.RunBatch at 1 and 2 jobs
}

var quickSizes = profileSizes{tick: 6, sinkCells: 2, sinkReps: 1, fleet: 12, serve: quickSessions, batch: 6}

// sampleEvery keeps full spans for one engine tick in this many; every
// tick is still counted and timed.
const sampleEvery = 256

func profile(p plan, cells []cell, sz profileSizes, log *spanLog, r *report) error {
	clock := clockCost()
	r.metric("trace.clock_ns", clock)
	if err := profileTicks(evenly(singles(cells), sz.tick), clock, log, r); err != nil {
		return fmt.Errorf("tick path: %w", err)
	}
	if err := profileSinks(evenly(singles(cells), sz.sinkCells), sz.sinkReps, r); err != nil {
		return fmt.Errorf("sinks: %w", err)
	}
	if err := profileFleet(evenly(singles(cells), sz.fleet), clock, r); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if err := profileServe(cells, sz.serve, log, r); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := profileBatch(evenly(cells, sz.batch), r); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	return nil
}

// clockCost is the cost in ns of one mono call. A region timed with two
// calls reads about one call long even when empty, and an enclosing
// region pays two calls per inner timed region.
func clockCost() float64 {
	const n = 1 << 15
	var per []float64
	for rep := 0; rep < 7; rep++ {
		start := mono()
		last := start
		for i := 0; i < n; i++ {
			last = mono()
		}
		per = append(per, float64(last-start)/n)
	}
	return median(per)
}

// tickSums accumulates the tick-path layers over the replayed cells.
type tickSums struct {
	ticks, invokes, coreInv, upsInv int64
	run, wl, nd, gov, coreD, upsD   time.Duration
	setup, finish, traced, untraced time.Duration
	allocs                          uint64
}

// profileTicks runs every cell twice: through harness.Run, untimed
// inside, and as a hand-wired replica of the harness's default wiring
// with a timer around each layer. The replica's Result must equal
// Run's. The residual compares the replica's layer times, with the
// timers' own cost taken out, against Run's cell time.
func profileTicks(cells []cell, clock float64, log *spanLog, r *report) error {
	var s tickSums
	for i, c := range cells {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := mono()
		want, err := c.run()
		s.untraced += mono() - start
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		s.allocs += m1.Mallocs - m0.Mallocs
		got, err := tracedCell(c, fmt.Sprintf("cell%03d %s", i, c), log, &s)
		if err != nil {
			return err
		}
		r.op()
		r.check(bytes.Equal(resultBytes(got), resultBytes(want)), "%s: traced replica %s != harness.Run %s",
			c, resultBytes(got), resultBytes(want))
	}
	n := float64(len(cells))
	ticks, inv := float64(s.ticks), float64(s.invokes)
	// Every timed region reads one clock call longer than its work, and
	// the run region around them pays two calls per inner region.
	inner := 2*ticks + inv
	wl := float64(s.wl) - ticks*clock
	nd := float64(s.nd) - ticks*clock
	gov := float64(s.gov) - inv*clock
	run := float64(s.run) - float64(len(cells))*clock - 2*clock*inner
	r.metric("sim.ticks", ticks/n)
	r.metric("sim.dispatch_ns", (run-wl-nd-gov)/ticks)
	r.metric("workload.step_ns", wl/ticks)
	r.metric("node.step_ns", nd/ticks)
	r.metric("governor.invokes", inv/n)
	r.metric("governor.invoke_ns", gov/inv)
	r.metric("core.invokes", float64(s.coreInv)/n)
	r.metric("core.invoke_ns", (float64(s.coreD)-float64(s.coreInv)*clock)/float64(s.coreInv))
	r.metric("governor.ups.invokes", float64(s.upsInv)/n)
	r.metric("governor.ups.invoke_ns", (float64(s.upsD)-float64(s.upsInv)*clock)/float64(s.upsInv))
	r.metric("harness.cell_ms", float64(s.untraced)/n/1e6)
	r.metric("harness.setup_us", float64(s.setup)/n/1e3)
	r.metric("harness.finish_us", float64(s.finish)/n/1e3)
	r.metric("harness.allocs_per_cell", float64(s.allocs)/n)
	r.metric("harness.residual_frac", 1-(float64(s.setup)+run+float64(s.finish))/float64(s.untraced))
	r.metric("trace.overhead_frac", float64(s.traced)/float64(s.untraced)-1)
	return nil
}

// tracedCell is the harness's default single-tenant wiring rebuilt from
// public calls, with a timer around each layer: the workload step and
// demand hand-off, the node step and the governor task. The engine's
// own dispatch is what the run region holds beyond them.
func tracedCell(c cell, run string, log *spanLog, s *tickSums) (harness.Result, error) {
	begin := mono()
	cellID := log.id()
	cfg, prog, opt := c.config(), c.program(), c.options()
	eng := sim.NewEngine(opt.Step)
	n := node.New(cfg)
	runner := workload.NewRunner(prog, cfg.SystemBWGBs(), opt.Seed)
	runner.SetAttained(n.AttainedGBs)
	var fset *faults.Set
	if opt.Faults.Armed() {
		if err := opt.Faults.Validate(); err != nil {
			return harness.Result{}, err
		}
		fset = faults.NewSet(opt.Faults, eng.Clock().Now)
	}
	env, err := harness.BuildFaultyEnv(n, fset)
	if err != nil {
		return harness.Result{}, err
	}
	gov := c.newGovernor()
	if err := gov.Attach(env); err != nil {
		return harness.Result{}, err
	}
	horizon := prog.NominalDuration()*4 + 10*time.Second

	// The latest region of each layer, kept for the sampled spans: a
	// tick runs the governor task (when due), then the components.
	var (
		tick                 int64
		wlA, wlB, govA, govB time.Duration
		invoked              bool
	)
	eng.AddComponent(sim.ComponentFunc(func(now, dt time.Duration) {
		wlA = mono()
		runner.Step(now, dt)
		n.SetDemand(runner.Demand())
		wlB = mono()
		s.wl += wlB - wlA
	}))
	eng.AddComponent(sim.ComponentFunc(func(now, dt time.Duration) {
		ndA := mono()
		n.Step(now, dt)
		ndB := mono()
		s.nd += ndB - ndA
		if tick%sampleEvery == 0 {
			tickStart := wlA
			if invoked {
				tickStart = govA
			}
			id := log.id()
			log.add(span{"sim.tick", tickStart, ndB, id, cellID, run, 1})
			if invoked {
				log.add(span{"governor.invoke", govA, govB, log.id(), id, run, 1})
			}
			log.add(span{"workload.step", wlA, wlB, log.id(), id, run, 1})
			log.add(span{"node.step", ndA, ndB, log.id(), id, run, 1})
		}
		tick++
		invoked = false
	}))
	eng.AddTask(&sim.Task{Name: gov.Name(), Interval: gov.Interval(), Fn: func(now time.Duration) time.Duration {
		govA = mono()
		next := gov.Invoke(now)
		govB = mono()
		d := govB - govA
		s.gov += d
		s.invokes++
		invoked = true
		switch c.gov {
		case "magus":
			s.coreD += d
			s.coreInv++
		case "ups":
			s.upsD += d
			s.upsInv++
		}
		return next
	}}, 0)

	runStart := mono()
	s.setup += runStart - begin
	if _, err := eng.RunUntil(runner.Done, horizon); err != nil {
		return harness.Result{}, fmt.Errorf("%s: %w", c, err)
	}
	finish := mono()
	s.run += finish - runStart
	s.ticks += tick

	elapsed := runner.Elapsed().Seconds()
	pkgJ, drmJ, gpuJ := n.EnergyJ()
	res := harness.Result{
		System: cfg.Name, Workload: prog.Name, Governor: gov.Name(),
		RuntimeS: elapsed, PkgEnergyJ: pkgJ, DramEnergyJ: drmJ, GPUEnergyJ: gpuJ,
	}
	if elapsed > 0 {
		res.AvgCPUPowerW = (pkgJ + drmJ) / elapsed
	}
	if fset != nil {
		res.FaultsInjected = fset.Tally()
	}
	end := mono()
	s.finish += end - finish
	s.traced += end - begin
	log.add(span{"harness.setup", begin, runStart, log.id(), cellID, run, 1})
	log.add(span{"harness.finish", finish, end, log.id(), cellID, run, 1})
	log.add(span{"harness.cell", begin, end, cellID, 0, run, 1})
	return res, nil
}

// sinkSets are the observer configurations each sink cell runs under.
var sinkSets = []struct {
	name                string
	tel, obs, spans, fl bool
}{
	{"none", false, false, false, false},
	{"telemetry", true, false, false, false},
	{"obs", false, true, false, false},
	{"spans", false, false, true, false},
	{"flight", false, false, false, true},
	{"all", true, true, true, true},
}

// profileSinks reruns each cell under every sink set, rotating the
// order between repetitions, and reports each sink's marginal cost per
// engine tick (median with the sink minus median with none), its
// output volume and its exporter's cost.
func profileSinks(cells []cell, reps int, r *report) error {
	const none, all = 0, 5
	var (
		sum                                 = make([]float64, len(sinkSets)) // Σ over cells of the per-cell median, ns
		ticksSum                            float64
		samples, events, spanCount, records float64
		obsExp, spansExp, flightExp         time.Duration
	)
	for _, c := range cells {
		times := make([][]float64, len(sinkSets))
		out := make([][]byte, len(sinkSets))
		for rep := 0; rep < reps; rep++ {
			for k := range sinkSets {
				j := (k + rep) % len(sinkSets)
				set := sinkSets[j]
				sk := newSinks(set.tel, set.obs, set.spans, set.fl)
				start := time.Now()
				res, err := harness.Run(c.config(), c.program(), c.newGovernor(), sk.apply(c.options()))
				times[j] = append(times[j], float64(time.Since(start)))
				if err != nil {
					return err
				}
				if rep > 0 {
					continue
				}
				_, obsD, spansD, flightD, err := sk.export(c.String())
				if err != nil {
					return err
				}
				switch set.name {
				case "none":
					ticksSum += float64(tickCount(res))
				case "telemetry":
					samples += float64(res.Traces.Series("mem_gbs").Len())
				case "obs":
					events += float64(sk.obs.Events().Count())
					obsExp += obsD
				case "spans":
					spanCount += float64(len(sk.spans.Spans()))
					spansExp += spansD
				case "flight":
					records += float64(sk.flight.Recorded())
					flightExp += flightD
				}
				res.Traces = nil
				out[j] = resultBytes(res)
			}
		}
		for j := range sinkSets {
			sum[j] += median(times[j])
			r.op()
			r.check(bytes.Equal(out[j], out[none]), "%s: result with sinks %q differs from the unobserved run",
				c, sinkSets[j].name)
		}
	}
	n := float64(len(cells))
	marginal := func(j int) float64 { return (sum[j] - sum[none]) / ticksSum }
	r.metric("telemetry.samples", samples/n)
	r.metric("telemetry.marginal_ns", marginal(1))
	r.metric("obs.events", events/n)
	r.metric("obs.marginal_ns", marginal(2))
	r.metric("obs.export_us", float64(obsExp)/n/1e3)
	r.metric("spans.spans", spanCount/n)
	r.metric("spans.marginal_ns", marginal(3))
	r.metric("spans.export_us", float64(spansExp)/n/1e3)
	r.metric("flight.records", records/n)
	r.metric("flight.marginal_ns", marginal(4))
	r.metric("flight.export_us", float64(flightExp)/n/1e3)
	total := sum[all] - sum[none]
	singlesSum := 0.0
	for j := 1; j < all; j++ {
		singlesSum += sum[j] - sum[none]
	}
	r.metric("harness.sink_interaction_frac", (total-singlesSum)/total)
	return nil
}

// timedGov times a fleet member's governor invocations. Each member has
// its own, so shards never share one.
type timedGov struct {
	governor.Governor
	d time.Duration
	n int64
}

func (g *timedGov) Invoke(now time.Duration) time.Duration {
	start := mono()
	next := g.Governor.Invoke(now)
	g.d += mono() - start
	g.n++
	return next
}

// fleetRun is one timed cluster.RunFleet call.
type fleetRun struct {
	res       cluster.Result
	wall, cpu time.Duration
}

func runFleet(specs []cluster.NodeSpec, opt cluster.Options) (fleetRun, error) {
	cpu, start := cpuTime(), time.Now()
	res, err := cluster.RunFleet(specs, opt)
	return fleetRun{res, time.Since(start), cpuTime() - cpu}, err
}

// profileFleet runs the cells as one fleet seven times: on two shards,
// on one shard twice and on two shards again (so the speed-up compares
// runs that bracket each other in time and a drift in machine speed
// cancels), with timed governors, without the distribution sketches and
// without the waste ledger. All but the last two must give the same
// result.
func profileFleet(cells []cell, clock float64, r *report) error {
	specs := fleetSpecs(cells)
	members := len(specs)
	opt := fleetOptions(members) // every member's DoneS is reported
	one, noDist, noWaste := opt, opt, opt
	one.Shards, noDist.Dist, noWaste.Waste = 1, false, false

	timed := make([]*timedGov, members)
	traced := append([]cluster.NodeSpec(nil), specs...)
	for i := range traced {
		g := &timedGov{}
		timed[i] = g
		factory := traced[i].Factory
		traced[i].Factory = func() governor.Governor {
			g.Governor = factory()
			return g
		}
	}

	var runs []fleetRun
	for _, run := range []struct {
		specs []cluster.NodeSpec
		opt   cluster.Options
	}{{specs, opt}, {specs, one}, {specs, one}, {specs, opt}, {traced, opt}, {specs, noDist}, {specs, noWaste}} {
		fr, err := runFleet(run.specs, run.opt)
		if err != nil {
			return err
		}
		runs = append(runs, fr)
	}
	res := runs[0].res
	want := fleetBytes(res, members)
	r.op()
	r.check(res.WasteBalanced, "fleet waste ledger does not balance")
	for i, what := range []string{"", "one shard", "one shard", "two shards again", "timed governors"} {
		if i > 0 {
			r.op()
			r.check(bytes.Equal(fleetBytes(runs[i].res, members), want), "fleet on %s differs from two shards", what)
		}
	}

	steps := float64(fleetNodeSteps(res, members))
	cpu := float64(runs[0].cpu+runs[3].cpu) / 2
	wall := float64(runs[0].wall+runs[3].wall) / 2
	var idle float64
	for _, m := range res.Top {
		idle += res.MakespanS - m.DoneS
	}
	var govNS float64
	for _, g := range timed {
		govNS += float64(g.d) - float64(g.n)*clock
	}
	d := res.Dist
	r.metric("cluster.node_steps", steps)
	r.metric("cluster.idle_node_step_frac", idle/(res.MakespanS*float64(members)))
	r.metric("cluster.cpu_ns_per_node_step", cpu/steps)
	r.metric("cluster.governor_ns_per_node_step", govNS/steps)
	r.metric("cluster.other_ns_per_node_step", (cpu-govNS)/steps)
	r.metric("parallel.efficiency", cpu/(wall*fleetShards))
	r.metric("parallel.fleet_speedup_2v1", float64(runs[1].wall+runs[2].wall)/(2*wall))
	r.metric("sketch.adds", float64(d.NodePowerW.Count+d.UncoreRatio.Count+d.WasteW.Count+d.AttainedGBs.Count))
	r.metric("sketch.marginal_ns", (cpu-float64(runs[5].cpu))/steps)
	r.metric("spans.waste_marginal_ns", (cpu-float64(runs[6].cpu))/steps)
	return nil
}

// handlerLog is timing middleware around the daemon's handler.
type handlerLog struct {
	mu   sync.Mutex
	recs []reqRec
}

func (h *handlerLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := mono()
		next.ServeHTTP(w, req)
		end := mono()
		id, _ := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
		h.mu.Lock()
		h.recs = append(h.recs, reqRec{id: id, route: route(req), start: start, end: end})
		h.mu.Unlock()
	})
}

func route(req *http.Request) string {
	switch {
	case req.URL.Path == "/healthz":
		return "healthz"
	case req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/step"):
		return "step"
	case req.Method == http.MethodPost:
		return "create"
	case req.Method == http.MethodDelete:
		return "delete"
	}
	return "status"
}

// profileServe drives sessions of the cells over HTTP through timing
// middleware, then replays each cell's step chunks directly on a
// harness.Steppable to separate the daemon's cost from the
// simulation's.
func profileServe(cells []cell, sessions int, log *spanLog, r *report) error {
	used := evenly(cells, sessions)
	ref, err := referenceResults(used)
	if err != nil {
		return err
	}
	hl := &handlerLog{}
	srv := startServer(hl.wrap)
	load := driveSessions(srv.srv.URL, used, ref, sessions, time.Time{}, log)
	srv.close()
	load.account(r)

	handler := make(map[int64]reqRec, len(hl.recs))
	byRoute := make(map[string][]float64)
	for _, h := range hl.recs {
		handler[h.id] = h
		byRoute[h.route] = append(byRoute[h.route], float64(h.end-h.start)/1e3)
	}
	var transport, stepHandler []float64
	for _, c := range load.clients {
		for _, q := range c.recs {
			log.add(span{"client." + q.route, q.start, q.end, q.id, 0, q.session, c.track})
			h, ok := handler[q.id]
			if !ok {
				continue
			}
			log.add(span{"serve." + h.route, h.start, h.end, log.id(), q.id, q.session, c.track})
			if q.route == "step" {
				hd := float64(h.end-h.start) / 1e3
				stepHandler = append(stepHandler, hd)
				transport = append(transport, float64(q.end-q.start)/1e3-hd)
			}
		}
	}

	var advance []float64
	for i, c := range used {
		lat, res, err := directReplay(c)
		if err != nil {
			return err
		}
		r.op()
		r.check(bytes.Equal(mustJSON(asServeResult(res)), ref[i]), "%s: direct Steppable replay differs from the daemon", c)
		advance = append(advance, durationsMS(lat)...)
	}
	for _, name := range []string{"create", "step", "status", "delete", "healthz"} {
		r.metric("serve.handler_us."+name, median(byRoute[name]))
	}
	r.metric("serve.transport_us", median(transport))
	r.metric("harness.advance_us", median(advance)*1e3)
	r.metric("serve.overhead_us", median(stepHandler)-median(advance)*1e3)
	r.metric("serve.requests", float64(load.sum(func(c *client) int64 { return int64(c.sent) })))
	r.metric("serve.decisions", float64(load.sum(func(c *client) int64 { return int64(c.decisions) })))
	return nil
}

// directReplay advances the cell as a serve session would, in 0.5 s
// chunks on a harness.Steppable carrying the same sinks (flight ring,
// and the waste tracer when armed), and times each chunk.
func directReplay(c cell) ([]time.Duration, harness.Result, error) {
	opt := c.options()
	opt.Flight = flight.NewRing(flight.DefaultCap)
	if c.waste {
		opt.Spans = spans.New(core.DefaultConfig().Window)
	}
	st, err := harness.NewSteppable(c.config(), c.program(), c.newGovernor(), opt)
	if err != nil {
		return nil, harness.Result{}, err
	}
	var lat []time.Duration
	for !st.Done() {
		start := time.Now()
		if _, err := st.Advance(stepChunk); err != nil {
			return nil, harness.Result{}, err
		}
		lat = append(lat, time.Since(start))
	}
	return lat, st.Result(), nil
}

// asServeResult is the daemon's view of a finished run.
func asServeResult(r harness.Result) *serve.ResultJSON {
	return &serve.ResultJSON{
		RuntimeS:     r.RuntimeS,
		AvgCPUPowerW: r.AvgCPUPowerW,
		PkgEnergyJ:   r.PkgEnergyJ,
		DramEnergyJ:  r.DramEnergyJ,
		GPUEnergyJ:   r.GPUEnergyJ,
		TotalEnergyJ: r.TotalEnergyJ(),
		FaultsFired:  r.FaultsInjected.Total(),
	}
}

// profileBatch runs the cells through harness.RunBatch with one and
// two workers, twice each; the results must be identical.
func profileBatch(cells []cell, r *report) error {
	specs := make([]harness.RunSpec, len(cells))
	for i, c := range cells {
		specs[i] = c.runSpec()
	}
	// Jobs 1, 2, 2, 1: each side's total brackets the other in time.
	var (
		durs [3]time.Duration
		outs [3][]harness.Result
	)
	for _, jobs := range []int{1, 2, 2, 1} {
		start := time.Now()
		res, err := harness.RunBatch(specs, jobs)
		durs[jobs] += time.Since(start)
		if err != nil {
			return err
		}
		outs[jobs] = res
	}
	for i := range cells {
		r.op()
		r.check(bytes.Equal(resultBytes(outs[1][i]), resultBytes(outs[2][i])), "%s: RunBatch result depends on jobs", cells[i])
	}
	r.metric("parallel.batch_speedup_2v1", float64(durs[1])/float64(durs[2]))
	return nil
}
