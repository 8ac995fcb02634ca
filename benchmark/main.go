// Command benchmark measures the simulator, the fleet engine and the
// serve daemon end to end, and layer by layer in a separate traced run.
// It calls the public functions of internal/harness, internal/cluster
// and internal/serve from outside and changes nothing under them.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload matrix --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics and writes
// the recorded spans as Chrome trace-event JSON (see README.md).
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// pinnedSeed is the seed the committed digests were computed with.
const pinnedSeed = 1

//go:embed digests.json
var digestsJSON []byte

// plan is what every workload is told about the run.
type plan struct {
	seed    int64
	seconds time.Duration
	quick   bool // smoke size: one pass over a handful of cells
}

// workloadDef is one benchmark workload: the cells it is made of, the
// untraced measurement, and how many of its cells each layer group of
// the traced profile replays.
type workloadDef struct {
	cells   func(p plan) []cell
	measure func(p plan, cells []cell, r *report) error
	sizes   profileSizes
}

var workloads = map[string]workloadDef{
	"matrix":   {matrixCells, measureMatrix, profileSizes{tick: -1, sinkCells: 6, sinkReps: 3, fleet: 24, serve: 8, batch: -1}},
	"observed": {observedCells, measureObserved, profileSizes{tick: 12, sinkCells: -1, sinkReps: 3, fleet: 24, serve: 8, batch: 12}},
	"fleet":    {fleetCells, measureFleet, profileSizes{tick: 12, sinkCells: 6, sinkReps: 3, fleet: 120, serve: 8, batch: 12}},
	"serve":    {serveCells, measureServe, profileSizes{tick: -1, sinkCells: 6, sinkReps: 3, fleet: -1, serve: 16, batch: -1}},
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: matrix, observed, fleet or serve")
		seed     = flag.Int64("seed", pinnedSeed, "input seed (>= 0); digests are pinned for seed 1")
		seconds  = flag.Int("seconds", 20, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		traceOut = flag.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
		quick    = flag.Bool("quick", false, "smoke size: one pass over a few cells")
	)
	flag.Parse()
	def, ok := workloads[*name]
	if !ok || *seed < 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need --workload {%s}, --seed >= 0, --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "trace-"+*name+".json")
	}
	p := plan{seed: *seed, seconds: time.Duration(*seconds) * time.Second, quick: *quick}
	r, err := runWorkload(*name, def, p, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
		os.Exit(1)
	}
	r.print(os.Stdout)
	if !r.ok() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// runWorkload runs one workload, untraced or traced, and returns its
// report.
func runWorkload(name string, def workloadDef, p plan, traced bool, traceOut string) (*report, error) {
	r := &report{workload: name}
	r.header(p, traced)
	cells := def.cells(p)
	if !traced {
		if err := def.measure(p, cells, r); err != nil {
			return nil, err
		}
		r.metric("peak_rss_mb", peakRSSMB())
		return r, nil
	}
	sizes := def.sizes
	if p.quick {
		sizes = quickSizes
	}
	log := newSpanLog()
	if err := profile(p, cells, sizes, log, r); err != nil {
		return nil, err
	}
	if err := log.write(traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "# trace: %d spans written to %s\n", log.len(), traceOut)
	return r, nil
}

// checkPinned digests a workload's outputs (the SHA-256 of the records,
// one per line, in order) and compares it with the committed digest
// when the run used the pinned seed.
func checkPinned(key string, p plan, records [][]byte, r *report) {
	h := sha256.New()
	for _, b := range records {
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	got := hex.EncodeToString(h.Sum(nil))
	if p.quick {
		key += ".quick"
	}
	fmt.Fprintf(os.Stderr, "# digest %s seed %d: %s\n", key, p.seed, got)
	if p.seed != pinnedSeed {
		return
	}
	var pinned map[string]string
	if err := json.Unmarshal(digestsJSON, &pinned); err != nil {
		r.fail(1, "digests.json: %v", err)
		return
	}
	if want := pinned[key]; want != got {
		r.fail(1, "digest %s = %s, pinned %q", key, got, want)
	}
}
