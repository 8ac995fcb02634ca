package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/report"
	"github.com/spear-repro/magus/internal/telemetry"
	"github.com/spear-repro/magus/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenRun is the fixed scenario behind the byte-stability goldens:
// MAGUS on Intel+A100 running bfs at seed 1.
func goldenRun(t *testing.T, o *obs.Observer) Result {
	t.Helper()
	cfg := node.IntelA100()
	prog, _ := workload.ByName("bfs")
	res, err := Run(cfg, prog, core.New(core.DefaultConfig()), Options{Seed: 1, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/harness -run Golden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (len got %d, want %d).\n"+
			"If the change is intentional, regenerate with -update.\nfirst diff near: %s",
			filepath.Base(path), len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hi := i + 40
			if hi > n {
				hi = n
			}
			return string(a[lo:hi])
		}
	}
	return "(one is a prefix of the other)"
}

// TestObservabilityGolden locks down the exact bytes of the metrics
// exposition and the JSONL event stream for a seeded MAGUS run. Any
// change to metric names, labels, formatting or event schema shows up
// here as a reviewable golden diff.
func TestObservabilityGolden(t *testing.T) {
	var events bytes.Buffer
	o := obs.New(obs.NewRegistry(), &events)
	goldenRun(t, o)

	checkGolden(t, filepath.Join("testdata", "metrics.golden"), o.Registry().AppendText(nil))
	checkGolden(t, filepath.Join("testdata", "events.golden"), events.Bytes())

	// Independent of the goldens, every event line must be valid JSON
	// with the mandatory envelope fields.
	for _, line := range strings.Split(strings.TrimSuffix(events.String(), "\n"), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		if _, ok := m["t"]; !ok {
			t.Fatalf("event missing t: %q", line)
		}
		if _, ok := m["type"].(string); !ok {
			t.Fatalf("event missing type: %q", line)
		}
	}
}

// traceHash reduces a run's telemetry traces to a digest via the same
// CSV writer the figures use.
func traceHash(t *testing.T, res Result) [32]byte {
	t.Helper()
	names := res.Traces.Names()
	series := make(map[string]*telemetry.Series, len(names))
	for _, n := range names {
		series[n] = res.Traces.Series(n)
	}
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf, names, series); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestObservedRunBitIdentical is the determinism regression the
// observability contract promises: a seeded run with an observer
// attached produces the exact same Result, traces and governor Stats()
// as one without.
func TestObservedRunBitIdentical(t *testing.T) {
	cfg := node.IntelA100()
	prog, _ := workload.ByName("bfs")
	opt := Options{Seed: 11, TraceInterval: 100 * time.Millisecond}

	plain := core.New(core.DefaultConfig())
	base, err := Run(cfg, prog, plain, opt)
	if err != nil {
		t.Fatal(err)
	}

	var events bytes.Buffer
	obsOpt := opt
	obsOpt.Obs = obs.New(obs.NewRegistry(), &events)
	observedGov := core.New(core.DefaultConfig())
	observed, err := Run(cfg, prog, observedGov, obsOpt)
	if err != nil {
		t.Fatal(err)
	}

	if base.RuntimeS != observed.RuntimeS ||
		base.AvgCPUPowerW != observed.AvgCPUPowerW ||
		base.PkgEnergyJ != observed.PkgEnergyJ ||
		base.DramEnergyJ != observed.DramEnergyJ ||
		base.GPUEnergyJ != observed.GPUEnergyJ {
		t.Fatalf("observed run diverged:\nbase     %+v\nobserved %+v", base, observed)
	}
	if plain.Stats() != observedGov.Stats() {
		t.Fatalf("governor stats diverged:\nbase     %+v\nobserved %+v", plain.Stats(), observedGov.Stats())
	}
	if traceHash(t, base) != traceHash(t, observed) {
		t.Fatal("telemetry traces diverged under observation")
	}
	if events.Len() == 0 {
		t.Fatal("observed run emitted no events")
	}
}

// TestObservedBaselinesReportMSRWrites: every baseline that moves the
// uncore limit reports its MSR writes. DUF moves the limit almost every
// cycle on srad, so its write counter must pass the attach write.
func TestObservedBaselinesReportMSRWrites(t *testing.T) {
	cfg := node.IntelA100()
	prog, _ := workload.ByName("srad")
	for _, gov := range []governor.Governor{
		governor.NewUPS(governor.DefaultUPSConfig()),
		governor.NewDUF(governor.DefaultDUFConfig()),
	} {
		o := obs.New(obs.NewRegistry(), nil)
		if _, err := Run(cfg, prog, gov, Options{Seed: 1, Obs: o}); err != nil {
			t.Fatal(err)
		}
		var writes float64
		for _, line := range strings.Split(o.Registry().Text(), "\n") {
			if v, ok := strings.CutPrefix(line, "magus_msr_writes_total "); ok {
				writes, _ = strconv.ParseFloat(v, 64)
			}
		}
		if writes <= float64(cfg.Sockets) {
			t.Errorf("%s: magus_msr_writes_total = %v, want more than the %d attach writes",
				gov.Name(), writes, cfg.Sockets)
		}
	}
}

// TestHealthzFlipsUnderFaultPreset drives the acceptance scenario end to
// end in-process: an httptest server over the observer reports healthy
// before the run and 503/lost after a pcm-loss run, with the
// healthy→degraded→lost transitions recorded in the event stream.
func TestHealthzFlipsUnderFaultPreset(t *testing.T) {
	var events bytes.Buffer
	o := obs.New(obs.NewRegistry(), &events)
	srv := httptest.NewServer(obs.NewHandler(o))
	defer srv.Close()

	status := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, _ := status("/healthz"); code != http.StatusOK {
		t.Fatalf("pre-run healthz %d", code)
	}

	plan, ok := faults.Preset("pcm-loss")
	if !ok {
		t.Fatal("pcm-loss preset missing")
	}
	cfg := node.IntelA100()
	prog, _ := workload.ByName("bfs")
	res, err := Run(cfg, prog, core.New(core.DefaultConfig()), Options{Seed: 1, Faults: plan, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected.Total() == 0 {
		t.Fatal("plan fired nothing")
	}

	code, body := status("/healthz")
	if code != http.StatusServiceUnavailable || body != "lost\n" {
		t.Fatalf("post-run healthz %d %q, want 503 lost", code, body)
	}

	ev := events.String()
	for _, want := range []string{
		`"type":"health","from":"healthy","to":"degraded"`,
		`"from":"degraded","to":"lost"`,
	} {
		if !strings.Contains(ev, want) {
			t.Fatalf("event stream missing %q:\n%s", want, ev)
		}
	}

	// The metrics surface must agree with /healthz.
	code, body = status("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics %d", code)
	}
	if !strings.Contains(body, "magus_sensor_health 2\n") {
		t.Fatal("magus_sensor_health gauge not lost")
	}
	if !strings.Contains(body, `magus_faults_injected_total{class="loss"}`) {
		t.Fatal("fault injection counters missing")
	}
	if len(o.Registry().Families()) < 12 {
		t.Fatalf("only %d metric families exported", len(o.Registry().Families()))
	}
}

// TestObservedRunConcurrentScrape runs a full observed simulation while
// scrape requests hammer the registry and health endpoints from other
// goroutines — the -race CI job turns any unsynchronised access into a
// failure.
func TestObservedRunConcurrentScrape(t *testing.T) {
	o := obs.New(obs.NewRegistry(), io.Discard)
	handler := obs.NewHandler(o)

	scrape := func() {
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		rw = httptest.NewRecorder()
		handler.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	}

	done := make(chan struct{})
	ready := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		scrape()
		close(ready) // at least one scrape is guaranteed before the run starts
		for {
			select {
			case <-done:
				return
			default:
				scrape()
			}
		}
	}()
	<-ready

	cfg := node.IntelA100()
	prog, _ := workload.ByName("bfs")
	if _, err := Run(cfg, prog, core.New(core.DefaultConfig()), Options{Seed: 3, Obs: o}); err != nil {
		t.Fatal(err)
	}
	close(done)
	<-finished
}
