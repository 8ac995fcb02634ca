// Command magusd runs an uncore frequency-scaling governor against a
// simulated heterogeneous node executing one application, streaming
// decisions as they happen and printing the run's energy metrics —
// the closest analogue of deploying the paper's user-transparent
// runtime daemon on a compute node.
//
// Usage:
//
//	magusd -system a100 -workload unet -governor magus -verbose
//	magusd -system 4a100 -workload gromacs -governor ups -compare
//	magusd -workload srad -governor magus -trace srad.csv -record srad.json
//	magusd -workload-file myjob.json -power-cap 180 -compare
//	magusd -workload srad -faults pcm-outage -compare
//	magusd -workload srad -spans srad-spans.json   # ui.perfetto.dev
//	magusd -dump-workload unet > unet.json
//	magusd serve -listen :9900                     # multi-tenant daemon
//
// Governors: magus (default), ups, duf, default (vendor), max, min; any of
// them composes with -power-cap (RAPL PL1). With -compare, the
// vendor-default baseline runs first and the summary reports the
// paper's three metrics against it.
//
// `magusd serve` switches to daemon mode: a session manager running
// one deterministic governor session per tenant over an HTTP API, with
// admission control, backpressure and graceful degradation under
// overload (see docs/SERVE.md and `magusd serve -h`).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	magus "github.com/spear-repro/magus"
	"github.com/spear-repro/magus/internal/prof"
	"github.com/spear-repro/magus/internal/report"
	"github.com/spear-repro/magus/internal/safeio"
	"github.com/spear-repro/magus/internal/serve"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	var (
		system   = flag.String("system", "a100", "system preset: a100, 4a100, max1550")
		workload = flag.String("workload", "unet", "catalog application to execute")
		wlFile   = flag.String("workload-file", "", "JSON workload definition (overrides -workload)")
		govName  = flag.String("governor", "magus", "governor: magus, ups, duf, default, max, min")
		capW     = flag.Float64("power-cap", 0, "per-socket PL1 power cap in watts (0 = none)")
		seed     = flag.Int64("seed", 1, "workload seed")
		verbose  = flag.Bool("verbose", false, "stream MAGUS decisions")
		compare  = flag.Bool("compare", false, "also run the vendor-default baseline and compare")
		trace    = flag.String("trace", "", "write telemetry CSV to this path")
		record   = flag.String("record", "", "archive the run as a JSON record at this path")
		faultArg = flag.String("faults", "", "arm a fault plan: preset name or plan JSON path\n(presets: "+
			strings.Join(magus.FaultPresets(), ", ")+")")
		listen    = flag.String("listen", "", "serve /metrics, /healthz and /debug/pprof on this address\n(e.g. :9890); keeps serving after the run until interrupted")
		events    = flag.String("events", "", "write the structured JSONL decision/event log to this path")
		maxEvents = flag.Uint64("max-events", 0, "cap the -events log at this many events (0 = unbounded);\na capped log ends with a terminal events_truncated record and\n/metrics reports magus_obs_events_emitted/dropped")
		flightOut = flag.String("flight", "", "write the run's flight-recorder tail (recent decisions, health\ntransitions, fault events) as JSONL to this path\n(see docs/OBSERVABILITY.md)")
		spansOut  = flag.String("spans", "", "write decision-causality spans and the power-waste ledger\nas Perfetto/Chrome trace-event JSON to this path\n(open at ui.perfetto.dev; see docs/TRACING.md)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this path\n(inspect with `go tool pprof`; see docs/PERF.md)")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after the run to this path")
		list      = flag.Bool("list", false, "list catalog applications and exit")
		dump      = flag.String("dump-workload", "", "print a catalog workload as JSON and exit")
	)
	flag.Parse()

	if *list {
		for _, name := range magus.Workloads() {
			fmt.Println(name)
		}
		return
	}
	if *dump != "" {
		p, ok := magus.WorkloadByName(*dump)
		if !ok {
			fatalIf(fmt.Errorf("unknown workload %q (use -list)", *dump))
		}
		fatalIf(p.WriteJSON(os.Stdout))
		return
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	fatalIf(err)

	cfg, err := magus.SystemByName(*system)
	fatalIf(err)
	var prog *magus.Workload
	if *wlFile != "" {
		f, err := os.Open(*wlFile)
		fatalIf(err)
		prog, err = magus.WorkloadFromJSON(f)
		f.Close()
		fatalIf(err)
	} else {
		var ok bool
		prog, ok = magus.WorkloadByName(*workload)
		if !ok {
			fatalIf(fmt.Errorf("unknown workload %q (use -list)", *workload))
		}
	}

	gov, err := magus.GovernorByName(*govName, cfg)
	fatalIf(err)
	rt, _ := gov.(*magus.Runtime)
	if *capW > 0 {
		gov = magus.WithPowerCap(gov, *capW)
	}
	if rt != nil && *verbose {
		rt.OnDecision(func(d magus.Decision) {
			state := ""
			if d.Warmup {
				state = " [warmup]"
			} else if d.HighFreq {
				state = " [high-freq pin]"
			}
			fmt.Printf("t=%6.1fs  mem=%7.1f GB/s  trend=%-4s  uncore→%.1f GHz%s\n",
				d.At.Seconds(), d.ThroughputGBs, d.Trend, d.TargetGHz, state)
		})
	}

	opt := magus.Options{Seed: *seed}
	if *trace != "" || *record != "" {
		opt.TraceInterval = 100 * time.Millisecond
	}
	if *faultArg != "" {
		plan, err := magus.LoadFaultPlan(*faultArg)
		fatalIf(err)
		opt.Faults = plan
		fmt.Printf("magusd: %s armed\n", plan)
	}
	var tracer *magus.Tracer
	if *spansOut != "" {
		tracer = magus.NewTracer(magus.DefaultConfig().Window)
		opt.Spans = tracer
	}

	var obsrv *magus.Observer
	if *listen != "" || *events != "" {
		var evw io.Writer
		if *events != "" {
			f, err := os.Create(*events)
			fatalIf(err)
			defer f.Close()
			evw = f
		}
		obsrv = magus.NewObserverWith(nil, evw, magus.ObserverOptions{MaxEvents: *maxEvents})
		opt.Obs = obsrv
	}
	var ring *magus.FlightRing
	if *flightOut != "" {
		ring = magus.NewFlightRing(4096)
		opt.Flight = ring
	}
	var srvErr chan error
	var srv *http.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		fatalIf(err)
		// Shared with serve mode: header/idle timeouts bound slowloris
		// connections on what may be a long-lived public port.
		srv = serve.NewServer(*listen, magus.NewObsHandler(obsrv))
		srvErr = make(chan error, 1)
		go func() { srvErr <- srv.Serve(ln) }()
		fmt.Printf("magusd: serving /metrics, /healthz, /debug/pprof on http://%s\n", ln.Addr())
	}

	fmt.Printf("magusd: %s on %s under %s\n", prog.Name, cfg.Name, gov.Name())
	res, err := magus.Run(cfg, prog, gov, opt)
	fatalIf(err)

	fmt.Printf("\nruntime      %8.2f s\n", res.RuntimeS)
	fmt.Printf("avg CPU power%8.1f W (package + DRAM)\n", res.AvgCPUPowerW)
	fmt.Printf("energy       %8.0f J  (pkg %.0f + dram %.0f + gpu %.0f)\n",
		res.TotalEnergyJ(), res.PkgEnergyJ, res.DramEnergyJ, res.GPUEnergyJ)
	if rt != nil {
		s := rt.Stats()
		fmt.Printf("runtime stats: %d invocations, %d tune events, %d high-freq overrides, %d MSR writes\n",
			s.Invocations, s.TuneEvents, s.Overrides, s.MSRWrites)
		if s.MissedSamples+s.SensorRetries+s.SensorTimeouts+s.WildSamples+s.StaleSamples+s.WatchdogOverruns > 0 {
			fmt.Printf("resilience:    %d missed samples (%d retries, %d timeouts, %d wild, %d stale), "+
				"%d degraded / %d lost cycles, %d recoveries, %d watchdog overruns\n",
				s.MissedSamples, s.SensorRetries, s.SensorTimeouts, s.WildSamples, s.StaleSamples,
				s.DegradedCycles, s.LostCycles, s.Recoveries, s.WatchdogOverruns)
		}
	}
	if opt.Faults != nil {
		in := res.FaultsInjected
		fmt.Printf("faults fired:  %d (%d errors, %d stalls, %d stale, %d wild, %d loss)\n",
			in.Total(), in.Errors, in.Stalls, in.Stales, in.Wilds, in.Losses)
	}

	if *compare {
		base, err := magus.Run(cfg, prog, magus.NewDefaultGovernor(), magus.Options{Seed: *seed})
		fatalIf(err)
		c := magus.Compare(base, res)
		fmt.Printf("\nversus vendor default:\n")
		fmt.Printf("  performance loss %6.2f %%\n", c.PerfLossPct)
		fmt.Printf("  CPU power saving %6.2f %%\n", c.PowerSavingPct)
		fmt.Printf("  energy saving    %6.2f %%\n", c.EnergySavingPct)
	}

	if *trace != "" {
		names := res.Traces.Names()
		series := make(map[string]*magus.Series, len(names))
		for _, n := range names {
			series[n] = res.Traces.Series(n)
		}
		fatalIf(safeio.WriteFile(*trace, func(w io.Writer) error {
			return report.WriteCSV(w, names, series)
		}))
		fmt.Printf("\ntrace written to %s (%d columns)\n", *trace, len(names))
	}
	if *record != "" {
		fatalIf(safeio.WriteFile(*record, func(w io.Writer) error {
			return magus.NewRecord(res, *seed).Write(w)
		}))
		fmt.Printf("run record written to %s\n", *record)
	}
	if tracer != nil {
		fatalIf(safeio.WriteFile(*spansOut, func(w io.Writer) error {
			return magus.WritePerfettoTrace(w, tracer)
		}))
		run := tracer.Ledger().Run()
		fmt.Printf("span trace written to %s (%d spans, %d decisions; uncore waste %.0f J of %.0f J)\n",
			*spansOut, len(tracer.Spans()), tracer.Count(magus.SpanDecision), run.WasteJ, run.TotalJ)
	}
	if obsrv != nil && *events != "" {
		ev := obsrv.Events()
		fatalIf(ev.Err())
		if d := ev.Dropped(); d > 0 {
			fmt.Printf("event log written to %s (%d events, %d dropped past -max-events)\n",
				*events, ev.Count(), d)
		} else {
			fmt.Printf("event log written to %s (%d events)\n", *events, ev.Count())
		}
	}
	if ring != nil {
		fatalIf(safeio.WriteFile(*flightOut, func(w io.Writer) error {
			return ring.DumpJSONL(w, prog.Name)
		}))
		fmt.Printf("flight recorder written to %s (%d of %d records retained)\n",
			*flightOut, ring.Len(), ring.Recorded())
	}
	fatalIf(stopProf())
	if *cpuProf != "" {
		fmt.Printf("cpu profile written to %s\n", *cpuProf)
	}
	if *memProf != "" {
		fmt.Printf("heap profile written to %s\n", *memProf)
	}
	if srvErr != nil {
		// The simulated run finishes in milliseconds; keep exporting its
		// final metric and health state until interrupted so scrapers
		// (or a curl) can read them.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		fmt.Printf("magusd: run complete, still serving %s (interrupt to exit)\n", *listen)
		select {
		case <-sig:
			// Bounded drain: in-flight scrapes finish, then the
			// listener closes, instead of dropping connections
			// mid-response.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			fatalIf(srv.Shutdown(ctx))
		case err := <-srvErr:
			fatalIf(err)
		}
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "magusd:", err)
		os.Exit(1)
	}
}
