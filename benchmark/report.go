package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// units names every metric the benchmark can print and its unit. The
// end-to-end metrics come first; BENCHMARK.json lists the same names.
var units = map[string]string{
	"setup_s":          "s",
	"node_steps_per_s": "1/s",
	"op_best_ms_p50":   "ms",
	"op_best_ms_p90":   "ms",
	"peak_rss_mb":      "MB",

	"sim.ticks":                         "count",
	"sim.dispatch_ns":                   "ns",
	"workload.step_ns":                  "ns",
	"node.step_ns":                      "ns",
	"governor.invokes":                  "count",
	"governor.invoke_ns":                "ns",
	"core.invokes":                      "count",
	"core.invoke_ns":                    "ns",
	"governor.ups.invokes":              "count",
	"governor.ups.invoke_ns":            "ns",
	"harness.cell_ms":                   "ms",
	"harness.setup_us":                  "us",
	"harness.finish_us":                 "us",
	"harness.allocs_per_cell":           "count",
	"harness.residual_frac":             "ratio",
	"trace.clock_ns":                    "ns",
	"trace.overhead_frac":               "ratio",
	"telemetry.samples":                 "count",
	"telemetry.marginal_ns":             "ns",
	"obs.events":                        "count",
	"obs.marginal_ns":                   "ns",
	"obs.export_us":                     "us",
	"spans.spans":                       "count",
	"spans.marginal_ns":                 "ns",
	"spans.export_us":                   "us",
	"flight.records":                    "count",
	"flight.marginal_ns":                "ns",
	"flight.export_us":                  "us",
	"harness.sink_interaction_frac":     "ratio",
	"cluster.node_steps":                "count",
	"cluster.idle_node_step_frac":       "ratio",
	"cluster.cpu_ns_per_node_step":      "ns",
	"cluster.governor_ns_per_node_step": "ns",
	"cluster.other_ns_per_node_step":    "ns",
	"parallel.efficiency":               "ratio",
	"parallel.fleet_speedup_2v1":        "ratio",
	"parallel.batch_speedup_2v1":        "ratio",
	"sketch.adds":                       "count",
	"sketch.marginal_ns":                "ns",
	"spans.waste_marginal_ns":           "ns",
	"serve.handler_us.create":           "us",
	"serve.handler_us.step":             "us",
	"serve.handler_us.status":           "us",
	"serve.handler_us.delete":           "us",
	"serve.handler_us.healthz":          "us",
	"serve.transport_us":                "us",
	"harness.advance_us":                "us",
	"serve.overhead_us":                 "us",
	"serve.requests":                    "count",
	"serve.decisions":                   "count",
}

// report collects a run's outcome: operations attempted and failed,
// correctness problems, and the metrics in the order they were set.
type report struct {
	workload  string
	attempted int
	failed    int
	problems  []string
	names     []string
	values    map[string]float64
}

// op counts one attempted operation.
func (r *report) op() { r.attempted++ }

// fail records n failed operations and why.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	msg := fmt.Sprintf(format, args...)
	if len(r.problems) < 20 {
		r.problems = append(r.problems, msg)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: FAIL %s\n", r.workload, msg)
}

// check fails one operation unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(1, format, args...)
	}
}

func (r *report) metric(name string, v float64) {
	if _, known := units[name]; !known {
		panic("benchmark: metric without a unit: " + name)
	}
	if r.values == nil {
		r.values = make(map[string]float64)
	}
	if _, dup := r.values[name]; !dup {
		r.names = append(r.names, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// An empty sample or a zero denominator: the run did not measure
		// what the metric claims, so it fails instead of printing a number.
		r.fail(1, "metric %s is %v", name, v)
		v = 0
	}
	r.values[name] = v
}

func (r *report) ok() bool { return r.failed == 0 && r.attempted > 0 }

// header prints the environment the numbers were measured in.
func (r *report) header(p plan, traced bool) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Printf("# workload %s seed %d seconds %.0f trace %v quick %v\n",
		r.workload, p.seed, p.seconds.Seconds(), traced, p.quick)
	fmt.Printf("# cpu %q nproc %d GOMAXPROCS %d go %s revision %s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one line per metric and then the result object, which
// is the last line of standard output.
func (r *report) print(w io.Writer) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{r.ok(), r.attempted, r.failed, make(map[string]metricJSON)}
	for _, n := range r.names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, r.values[n], units[n])
		out.Metrics[n] = metricJSON{r.values[n], units[n]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// quantile is the linear-interpolation quantile of xs (0 <= q <= 1),
// NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// opKey names one of a workload's distinct operations: {i, 0} is cell
// i, {0, 0} the fleet pass, and {j, k} step k of a session of serve
// spec j.
type opKey struct{ op, step int }

type opBest struct {
	d         time.Duration
	nodeSteps int64 // simulated node-milliseconds the operation advances
}

// bestOf keeps the fastest time the run measured for each distinct
// operation. Other tenants of a shared host only ever add time, and on
// the reference machine they slow the simulator by up to 2× for
// stretches of milliseconds to minutes. The fastest repetition of each
// operation is the least disturbed measurement of the code: it follows
// machine drift less than a median over passes, and on serve it spreads
// a fifth as much (README.md, Calibration).
type bestOf map[opKey]opBest

func (b bestOf) add(k opKey, d time.Duration, nodeSteps int64) {
	if cur, ok := b[k]; !ok || d < cur.d {
		b[k] = opBest{d, nodeSteps}
	}
}

// report sets the throughput and latency metrics: node-steps of one run
// of every operation over the sum of their fastest times, and the median
// and 90th percentile of the fastest times.
func (b bestOf) report(r *report) {
	var (
		total time.Duration
		steps int64
		ms    []float64
	)
	for _, o := range b {
		total += o.d
		steps += o.nodeSteps
		ms = append(ms, float64(o.d)/1e6)
	}
	r.metric("node_steps_per_s", float64(steps)/total.Seconds())
	r.metric("op_best_ms_p50", quantile(ms, 0.5))
	r.metric("op_best_ms_p90", quantile(ms, 0.9))
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's view of memory obtained from the OS when /proc is
// missing.
func peakRSSMB() float64 {
	if kb, ok := procStatusKB("VmHWM:"); ok {
		return kb / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func procStatusKB(key string) (float64, bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g", &kb); err == nil {
				return kb, true
			}
		}
	}
	return 0, false
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime is the user+system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 9

// timedSetup runs setup several times and returns the median duration
// and the last setup's value, which the measurement then uses. Each
// setup builds its inputs from scratch; earlier values are released
// with release.
func timedSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		v    T
		durs []float64
	)
	for i := 0; i < setups; i++ {
		if i > 0 && release != nil {
			release(v)
		}
		start := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		durs = append(durs, time.Since(start).Seconds())
	}
	return v, median(durs), nil
}
