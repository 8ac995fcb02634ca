package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/workload"
)

// quickCells is the cell count of a smoke-size matrix or observed run.
const quickCells = 6

// matrixCells is the Fig. 4 grid: every (system, app) cell of 4a, 4b
// and 4c under the vendor default, MAGUS and UPS.
func matrixCells(p plan) []cell {
	systems := []struct {
		sys  string
		apps []string
	}{
		{"a100", workload.SingleGPU()},
		{"max1550", workload.AltisSYCL()},
		{"4a100", workload.MultiGPU()},
	}
	var cells []cell
	for _, s := range systems {
		for _, app := range s.apps {
			for _, gov := range []string{"default", "magus", "ups"} {
				cells = append(cells, cell{sys: s.sys, app: app, gov: gov, seed: p.seed})
			}
		}
	}
	if p.quick {
		return evenly(cells, quickCells)
	}
	return cells
}

// observedCells is Fig. 4a on Intel+A100 under MAGUS and UPS.
func observedCells(p plan) []cell {
	var cells []cell
	for _, app := range workload.SingleGPU() {
		for _, gov := range []string{"magus", "ups"} {
			cells = append(cells, cell{sys: "a100", app: app, gov: gov, seed: p.seed})
		}
	}
	if p.quick {
		return evenly(cells, quickCells)
	}
	return cells
}

// warmCells is one cell per distinct (system, governor) pair: the
// cold warm-up touches every code path a pass will take.
func warmCells(cells []cell) []cell {
	seen := make(map[string]bool)
	var out []cell
	for _, c := range cells {
		if k := c.sys + "/" + c.gov; !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// repeatPasses runs pass at least once and starts another only while
// it is expected to end within half a pass of the measurement window's
// end; a smoke run makes exactly one pass. Every pass starts from a
// collected heap, as a fresh process would, which keeps the peak RSS
// from depending on where the previous pass left the GC cycle.
func repeatPasses(p plan, pass func() error) error {
	start := time.Now()
	for {
		runtime.GC()
		t := time.Now()
		if err := pass(); err != nil {
			return err
		}
		last := time.Since(t)
		if p.quick || time.Since(start)+last/2 > p.seconds {
			return nil
		}
	}
}

// measureMatrix runs the grid serially through harness.RunBatch. A
// factory wrapper stamps each cell's start, which gives per-cell
// latency without touching the batch runner.
func measureMatrix(p plan, cells []cell, r *report) error {
	specs, setupS, err := timedSetup(func() ([]harness.RunSpec, error) {
		specs := make([]harness.RunSpec, len(cells))
		for i, c := range cells {
			specs[i] = c.runSpec()
		}
		var warm []harness.RunSpec
		for _, c := range warmCells(cells) {
			warm = append(warm, c.runSpec())
		}
		_, err := harness.RunBatch(warm, 1)
		return specs, err
	}, nil)
	if err != nil {
		return err
	}
	r.metric("setup_s", setupS)

	var ref [][]byte
	best := bestOf{}
	starts := make([]time.Time, len(specs)+1)
	for i := range specs {
		factory := specs[i].Factory
		specs[i].Factory = func() governor.Governor {
			starts[i] = time.Now()
			return factory()
		}
	}
	err = repeatPasses(p, func() error {
		results, err := harness.RunBatch(specs, 1)
		starts[len(specs)] = time.Now()
		if err != nil {
			return err
		}
		for i, res := range results {
			best.add(opKey{op: i}, starts[i+1].Sub(starts[i]), tickCount(res))
		}
		checkResults("matrix", p, cells, results, &ref, r)
		return nil
	})
	if err != nil {
		return err
	}
	best.report(r)
	return nil
}

// checkResults compares a pass's results with the first pass's. On the
// first pass it checks each result is plausible, keeps the results as
// the reference and checks their digest.
func checkResults(key string, p plan, cells []cell, results []harness.Result, ref *[][]byte, r *report) {
	first := *ref == nil
	for i, res := range results {
		r.op()
		b := resultBytes(res)
		if first {
			sane := res.RuntimeS > 0 && res.PkgEnergyJ > 0 && res.DramEnergyJ > 0 && res.AvgCPUPowerW > 0
			r.check(sane, "%s: implausible result %s", cells[i], b)
			*ref = append(*ref, b)
		} else {
			r.check(bytes.Equal(b, (*ref)[i]), "%s: result differs between passes", cells[i])
		}
	}
	if first {
		checkPinned(key, p, *ref, r)
	}
}

// maxEvents bounds each observed cell's event log, as a daemon would.
const maxEvents = 4096

// sinks is the set of passive observers one harness run can carry.
type sinks struct {
	telemetry bool
	obs       *obs.Observer
	spans     *spans.Tracer
	flight    *flight.Ring
	// out hashes everything the sinks emit: the event stream during the
	// run, then each exporter's output.
	out hash.Hash
}

// newSinks arms the chosen observers: telemetry at 100 ms, metrics with
// a bounded event log, the decision tracer and the flight ring.
func newSinks(tel, o, sp, fl bool) sinks {
	s := sinks{telemetry: tel, out: sha256.New()}
	if o {
		s.obs = obs.NewWith(nil, s.out, obs.Options{MaxEvents: maxEvents})
	}
	if sp {
		s.spans = spans.New(core.DefaultConfig().Window)
	}
	if fl {
		s.flight = flight.NewRing(flight.DefaultCap)
	}
	return s
}

func (s sinks) apply(opt harness.Options) harness.Options {
	if s.telemetry {
		opt.TraceInterval = 100 * time.Millisecond
	}
	opt.Obs, opt.Spans, opt.Flight = s.obs, s.spans, s.flight
	return opt
}

// export writes every armed sink's output format into the hash after
// the JSONL events: Prometheus text, Perfetto JSON and flight JSONL.
// The returned durations are the three exporters' costs.
func (s sinks) export(source string) (sum string, obsD, spansD, flightD time.Duration, err error) {
	h := s.out
	if s.obs != nil {
		t := time.Now()
		err = s.obs.Registry().WriteText(h)
		obsD = time.Since(t)
		if err != nil {
			return "", 0, 0, 0, fmt.Errorf("prometheus export: %w", err)
		}
	}
	if s.spans != nil {
		t := time.Now()
		err = s.spans.WritePerfetto(h)
		spansD = time.Since(t)
		if err != nil {
			return "", 0, 0, 0, fmt.Errorf("perfetto export: %w", err)
		}
	}
	if s.flight != nil {
		t := time.Now()
		err = s.flight.DumpJSONL(h, source)
		flightD = time.Since(t)
		if err != nil {
			return "", 0, 0, 0, fmt.Errorf("flight export: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), obsD, spansD, flightD, nil
}

// observedCell runs one cell with every sink on and exports them all.
func observedCell(c cell) (harness.Result, string, error) {
	s := newSinks(true, true, true, true)
	res, err := harness.Run(c.config(), c.program(), c.newGovernor(), s.apply(c.options()))
	if err != nil {
		return res, "", err
	}
	sum, _, _, _, err := s.export(c.String())
	return res, sum, err
}

// measureObserved runs the observed cells serially, each with all four
// sinks and all four exporters.
func measureObserved(p plan, cells []cell, r *report) error {
	_, setupS, err := timedSetup(func() (struct{}, error) {
		for _, c := range warmCells(cells) {
			if _, _, err := observedCell(c); err != nil {
				return struct{}{}, err
			}
		}
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return err
	}
	r.metric("setup_s", setupS)

	var (
		ref       [][]byte
		refExport []string
	)
	best := bestOf{}
	err = repeatPasses(p, func() error {
		first := refExport == nil
		results := make([]harness.Result, len(cells))
		for i, c := range cells {
			t := time.Now()
			res, sum, err := observedCell(c)
			if err != nil {
				return err
			}
			best.add(opKey{op: i}, time.Since(t), tickCount(res))
			results[i] = res
			if first {
				refExport = append(refExport, sum)
			} else {
				r.check(sum == refExport[i], "%s: exported sinks differ between passes", c)
			}
		}
		checkResults("observed", p, cells, results, &ref, r)
		return nil
	})
	if err != nil {
		return err
	}
	best.report(r)
	return nil
}
