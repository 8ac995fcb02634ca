// Command benchgate enforces the repository's performance contract in
// CI. It reads `go test -bench -benchmem` output on stdin, compares
// every gated benchmark against the committed baseline (the gate
// section of BENCH.json), and exits non-zero when a benchmark is
// missing, allocates more than its pinned budget, or slows past the
// ns/op tolerance.
//
// Allocation budgets gate exactly. testing reports allocs/op as the
// process's mallocs during the timed region divided by the iteration
// count, so the zero-allocation micro-benchmarks run at 1000
// iterations: a stray runtime allocation (a new OS thread when the
// world restarts after ReadMemStats, the scavenger's timer) then reads
// 0, while one allocation per op still reads 1. Whole-run benchmarks
// run once, with budgets that carry headroom. Wall-clock is noisy on
// shared CI runners, so the time gate is a wide catastrophe net
// (baseline × tolerance factor), not a benchstat-grade comparison.
//
// Usage: pipe the benchmarks into benchgate. BENCH.json records the
// full command as environment.command, and the bench job in
// .github/workflows/ci.yml runs it:
//
//	go test -run '^$' -bench <gated benchmarks> -benchmem -benchtime=<n>x <packages> |
//	    go run ./cmd/benchgate
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// baselineFile mirrors the gate section of BENCH.json; the environment
// and suites sections are documentation and ignored here.
type baselineFile struct {
	Gate struct {
		NsToleranceFactor float64              `json:"ns_tolerance_factor"`
		Benchmarks        map[string]gateEntry `json:"benchmarks"`
	} `json:"gate"`
}

type gateEntry struct {
	MaxAllocsPerOp  uint64  `json:"max_allocs_per_op"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
}

// result is one parsed benchmark output line.
type result struct {
	nsPerOp     float64
	allocsPerOp uint64
	hasAllocs   bool
}

// minNsLimit is the floor on the ns/op gate. A single-iteration
// measurement of a nanosecond-scale operation is dominated by timer
// granularity and benchmark-harness overhead (microseconds), so
// baseline × tolerance can be smaller than anything -benchtime=1x can
// physically report. The gate therefore never demands better than
// this floor; it only tightens the net for benchmarks whose scaled
// baseline already exceeds it.
const minNsLimit = 5000.0

// benchLine matches `BenchmarkName[-procs]  N  123 ns/op [custom metrics] [ 45 B/op  6 allocs/op]`.
// Custom b.ReportMetric columns (e.g. `1408992 node-steps/s`) may sit
// between ns/op and the -benchmem pair, so allocs/op is anchored to the
// line end rather than adjacent to ns/op.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*\s([0-9]+) allocs/op)?\s*$`)

// loadBaseline reads and sanity-checks the committed gate file.
func loadBaseline(path string) (baselineFile, error) {
	var base baselineFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, fmt.Errorf("%s: %w", path, err)
	}
	if len(base.Gate.Benchmarks) == 0 {
		return base, fmt.Errorf("%s: no gate.benchmarks entries", path)
	}
	if tol := base.Gate.NsToleranceFactor; tol <= 1 {
		return base, fmt.Errorf("%s: gate.ns_tolerance_factor must be > 1 (got %v)", path, tol)
	}
	return base, nil
}

// parseResults extracts benchmark lines from `go test -bench` output.
func parseResults(in io.Reader) (map[string]result, error) {
	results := make(map[string]result)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, err
		}
		r := result{nsPerOp: ns}
		if m[3] != "" {
			r.allocsPerOp, err = strconv.ParseUint(m[3], 10, 64)
			if err != nil {
				return nil, err
			}
			r.hasAllocs = true
		}
		results[m[1]] = r
	}
	return results, sc.Err()
}

// gate compares parsed results against the baseline, writes one
// verdict line per gated benchmark to out (sorted by name), and
// returns the failure count. A gated benchmark absent from results is
// a failure: a silently skipped gate is the regression this tool
// exists to catch.
func gate(base baselineFile, results map[string]result, out io.Writer) int {
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(out, "FAIL  "+format+"\n", args...)
	}
	tol := base.Gate.NsToleranceFactor
	names := make([]string, 0, len(base.Gate.Benchmarks))
	for name := range base.Gate.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := base.Gate.Benchmarks[name]
		r, ok := results[name]
		if !ok {
			fail("%s: missing from input (did the benchmark run with -benchmem?)", name)
			continue
		}
		if !r.hasAllocs {
			fail("%s: no allocs/op column — run with -benchmem", name)
			continue
		}
		passed := true
		if r.allocsPerOp > g.MaxAllocsPerOp {
			fail("%s: %d allocs/op, budget %d", name, r.allocsPerOp, g.MaxAllocsPerOp)
			passed = false
		}
		limit := g.BaselineNsPerOp * tol
		if limit < minNsLimit {
			limit = minNsLimit
		}
		if r.nsPerOp > limit {
			fail("%s: %.0f ns/op exceeds %.0f (baseline %.0f × %.0fx tolerance, floor %.0f)",
				name, r.nsPerOp, limit, g.BaselineNsPerOp, tol, minNsLimit)
			passed = false
		}
		if passed {
			fmt.Fprintf(out, "ok    %s: %d allocs/op (budget %d), %.0f ns/op (limit %.0f)\n",
				name, r.allocsPerOp, g.MaxAllocsPerOp, r.nsPerOp, limit)
		}
	}
	if failures > 0 {
		fmt.Fprintf(out, "benchgate: %d failure(s)\n", failures)
	} else {
		fmt.Fprintf(out, "benchgate: %d benchmark(s) within budget\n", len(base.Gate.Benchmarks))
	}
	return failures
}

// run wires the pipeline — baseline, stdin parse, gate — and returns
// the failure count; split from main so tests can drive it directly.
func run(baselinePath string, in io.Reader, out io.Writer) (int, error) {
	base, err := loadBaseline(baselinePath)
	if err != nil {
		return 0, err
	}
	results, err := parseResults(in)
	if err != nil {
		return 0, err
	}
	return gate(base, results, out), nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH.json", "committed baseline with the gate section")
	flag.Parse()

	failures, err := run(*baselinePath, os.Stdin, os.Stdout)
	fatalIf(err)
	if failures > 0 {
		os.Exit(1)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
