package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/spans"
)

// TestFleetDistShardIdentity extends the shard byte-identity contract
// to distribution telemetry: a sketch-enabled fleet run — the full
// Result including Dist, and the magus_fleet_* metrics exposition —
// is byte-identical for shard counts {1, 2, 7, NumCPU}. Sketch merging
// is integer bucket addition, so this holds exactly, not within
// tolerance.
func TestFleetDistShardIdentity(t *testing.T) {
	specs := fleetSpecs(t, 9)
	run := func(shards int) (Result, string) {
		o := obs.New(nil, nil)
		res, err := RunFleet(specs, Options{
			SampleEvery: 50 * time.Millisecond, Shards: shards,
			Dist: true, Waste: true, TopK: 3, Obs: o,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res, string(o.Registry().AppendText(nil))
	}
	refRes, refExpo := run(1)
	if refRes.Dist == nil {
		t.Fatal("Dist not populated")
	}
	if refRes.Dist.NodePowerW.Count == 0 || refRes.Dist.WasteW.Count == 0 {
		t.Fatalf("empty distributions: %+v", refRes.Dist)
	}
	want := mustJSON(t, refRes)
	for _, k := range []int{2, 7, runtime.NumCPU()} {
		res, expo := run(k)
		if got := mustJSON(t, res); got != want {
			t.Errorf("shards=%d: sketch-enabled Result diverged\nref: %.300s\ngot: %.300s", k, want, got)
		}
		if expo != refExpo {
			t.Errorf("shards=%d: metrics exposition diverged", k)
		}
	}
}

// TestFleetDistDisabledIdentity pins the PR 4/9 disabled-path
// contract: a run without Dist is byte-identical to one where the
// field never existed — enabling nothing changes nothing.
func TestFleetDistDisabledIdentity(t *testing.T) {
	specs := fleetSpecs(t, 6)
	base, err := RunFleet(specs, Options{SampleEvery: 50 * time.Millisecond, Waste: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Dist != nil {
		t.Fatal("Dist populated without Options.Dist")
	}
	// The sketch-enabled run must not perturb anything pre-existing:
	// nil its Dist and compare against the plain run byte-for-byte.
	withDist, err := RunFleet(specs, Options{SampleEvery: 50 * time.Millisecond, Waste: true, Dist: true})
	if err != nil {
		t.Fatal(err)
	}
	withDist.Dist = nil
	if got, want := mustJSON(t, withDist), mustJSON(t, base); got != want {
		t.Fatalf("enabling Dist perturbed the run\nwant: %.300s\ngot:  %.300s", want, got)
	}
}

// TestFleetDistWithoutWaste: the waste-watts sketch works without the
// waste ledger (models are built for Dist alone), and the ledger is
// not accidentally armed.
func TestFleetDistWithoutWaste(t *testing.T) {
	specs := fleetSpecs(t, 4)
	res, err := RunFleet(specs, Options{Dist: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.UncoreWaste != nil {
		t.Fatal("waste ledger armed by Dist")
	}
	if res.Dist == nil || res.Dist.WasteW.Count == 0 {
		t.Fatal("waste-watts sketch empty without Options.Waste")
	}
	// Socket-dimension sketches carry Sockets× the member-dimension
	// counts; member dimensions tick in lockstep.
	if res.Dist.NodePowerW.Count != res.Dist.AttainedGBs.Count {
		t.Fatalf("member-dimension counts diverge: %d vs %d",
			res.Dist.NodePowerW.Count, res.Dist.AttainedGBs.Count)
	}
	sockets := uint64(node.IntelA100().Sockets)
	if res.Dist.WasteW.Count != res.Dist.NodePowerW.Count*sockets {
		t.Fatalf("socket-dimension count %d != member count %d × %d sockets",
			res.Dist.WasteW.Count, res.Dist.NodePowerW.Count, sockets)
	}
	if res.Dist.UncoreRatio.Max > 1.0000001 || res.Dist.UncoreRatio.Min <= 0 {
		t.Fatalf("uncore ratio out of range: %+v", res.Dist.UncoreRatio)
	}
}

// TestFleetDistExposition: an observed dist run exposes the four
// magus_fleet_* histogram families and their *_quantile gauges, and
// serves the /fleet JSON page on the standard handler.
func TestFleetDistExposition(t *testing.T) {
	specs := fleetSpecs(t, 4)
	o := obs.New(nil, nil)
	res, err := RunFleet(specs, Options{Dist: true, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	expo := string(o.Registry().AppendText(nil))
	for _, spec := range distSpecs {
		if !strings.Contains(expo, spec.metric+"_bucket") {
			t.Errorf("exposition missing histogram %s", spec.metric)
		}
		for _, q := range []string{"p50", "p90", "p99", "max"} {
			needle := fmt.Sprintf("%s_quantile{q=%q}", spec.metric, q)
			if !strings.Contains(expo, needle) {
				t.Errorf("exposition missing %s", needle)
			}
		}
	}
	// Histogram counts must equal the sketch counts (ObserveN fold).
	if !strings.Contains(expo, fmt.Sprintf("magus_fleet_node_power_watts_count %d", res.Dist.NodePowerW.Count)) {
		t.Errorf("histogram count does not match sketch count %d:\n%s", res.Dist.NodePowerW.Count, expo)
	}

	srv := httptest.NewServer(obs.NewHandler(o))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet status = %d", resp.StatusCode)
	}
	var page FleetDist
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatalf("/fleet parse: %v", err)
	}
	if page != *res.Dist {
		t.Fatalf("/fleet page %+v != Result.Dist %+v", page, *res.Dist)
	}
}

// TestFoldMemoMatchesDirectFold pins integrate's memos against the
// unmemoised fold: after every tick of a shard whose members run, then
// finish and settle, its sketches and waste ledger equal those built by
// calling Decompose and Sketch.Add on the same node readings.
func TestFoldMemoMatchesDirectFold(t *testing.T) {
	specs, every, _, err := normalize(fleetSpecs(t, 6), 0)
	if err != nil {
		t.Fatal(err)
	}
	sh := newShard(specs, every, 64, Options{Waste: true, Dist: true})
	if sh.buildErr != nil {
		t.Fatal(sh.buildErr)
	}
	want := newDistSketches()
	attrs := make([]spans.EnergyAttr, len(specs))
	for sh.clock < 4*time.Second {
		sh.tick()
		for i, m := range sh.members {
			n := m.run.Node()
			cfg := &m.spec.Config
			for s := 0; s < cfg.Sockets; s++ {
				rel := n.UncoreFreqGHz(s) / cfg.UncoreMaxGHz
				base, useful, waste := sh.models[i].Decompose(rel, n.AttainedGBsSocket(s))
				attrs[i].Accumulate(sh.dtSec, base, useful, waste, n.UncorePowerW(s))
				want[distUncoreRatio].Add(rel)
				want[distWasteW].Add(waste)
			}
			want[distNodePowerW].Add(n.TotalPowerW())
			want[distAttainedGBs].Add(n.AttainedGBs())
		}
		for d := range want {
			if !reflect.DeepEqual(sh.sketches[d], want[d]) {
				t.Fatalf("t=%v: sketch %s differs from the direct fold", sh.clock, distSpecs[d].metric)
			}
		}
		if got := fmt.Sprint(sh.attrs); got != fmt.Sprint(attrs) {
			t.Fatalf("t=%v: waste ledger differs from the direct fold", sh.clock)
		}
	}
	if sh.nDone != len(specs) {
		t.Fatalf("%d of %d members finished; the memo hits on settled members go untested", sh.nDone, len(specs))
	}
}

// BenchmarkHotPathFleetSketchTick pins the steady-state shard tick
// with distribution folding armed to zero allocations per op
// (cmd/benchgate, BENCH_hotpath.json).
func BenchmarkHotPathFleetSketchTick(b *testing.B) {
	const n = 64
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{
			Config:   node.IntelA100(),
			Workload: fleetProg(fmt.Sprintf("w%d", i%4), 3_600_000),
			Seed:     1 + int64(i)*131,
		}
		if i%2 == 0 {
			specs[i].Factory = magusFactory
		}
	}
	normalized, every, _, err := normalize(specs, 0)
	if err != nil {
		b.Fatal(err)
	}
	sh := newShard(normalized, every, 1<<16, Options{Dist: true, Waste: true})
	if sh.buildErr != nil {
		b.Fatal(sh.buildErr)
	}
	for sh.clock < 1500*time.Millisecond {
		sh.tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.tick()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node-step")
}
