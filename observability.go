package magus

import (
	"io"
	"net/http"
	"time"

	"github.com/spear-repro/magus/internal/cluster"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/obs"
)

// This file exposes the observability layer: a zero-dependency metrics
// registry with Prometheus text exposition, a structured JSONL event
// log of governor decisions, and an HTTP handler serving /metrics,
// /healthz and pprof. Attach an Observer through Options.Obs (single
// runs), ExperimentOptions.Obs (benchmark suites) or RunClusterObserved
// (batches); observation is passive — an observed run produces
// bit-identical results to an unobserved one.

// Observer bundles a metrics registry, an optional event log, and the
// run's live health state. A nil Observer disables observation.
type Observer = obs.Observer

// MetricsRegistry is a concurrency-safe metric registry (counters,
// gauges, histograms, labeled families) with Prometheus text-format
// (0.0.4) exposition.
type MetricsRegistry = obs.Registry

// EventLog writes structured JSONL events (one object per line).
type EventLog = obs.EventLog

// ObsHealth is the coarse run health the observer publishes: the worst
// sensor state the governor currently sees.
type ObsHealth = obs.Health

// Observer health states (numerically identical to SensorHealth).
const (
	ObsHealthy  = obs.Healthy
	ObsDegraded = obs.Degraded
	ObsLost     = obs.Lost
)

// MetricsContentType is the Content-Type of /metrics responses
// (Prometheus text exposition format 0.0.4).
const MetricsContentType = obs.ExpositionContentType

// DefaultObsInterval is the metrics sampling interval of an observed
// run.
const DefaultObsInterval = harness.DefaultObsInterval

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewObserver builds an observer over reg (nil = fresh registry) that
// writes decision events to events (nil = no event log).
func NewObserver(reg *MetricsRegistry, events io.Writer) *Observer {
	return obs.New(reg, events)
}

// ObserverOptions tunes an Observer beyond the NewObserver defaults.
type ObserverOptions = obs.Options

// NewObserverWith is NewObserver with options. A non-zero MaxEvents
// caps the JSONL event log: the log ends with a terminal
// events_truncated record once the cap is hit, and /metrics gains
// magus_obs_events_emitted / magus_obs_events_dropped so the
// truncation is observable. The default (zero) is unbounded and
// byte-identical to NewObserver.
func NewObserverWith(reg *MetricsRegistry, events io.Writer, opt ObserverOptions) *Observer {
	return obs.NewWith(reg, events, opt)
}

// ---- Flight recorder ----

// FlightRing is the bounded always-on flight recorder
// (internal/flight): attach one through Options.Flight and the run's
// recent governor decisions, sensor-health transitions and fault
// events stay resident for a postmortem dump (JSONL via DumpJSONL,
// Perfetto-loadable trace via DumpPerfetto). Recording is passive and
// allocation-free; an armed run stays byte-identical to an unarmed
// one.
type FlightRing = flight.Ring

// FlightRecord is one flight-recorder entry.
type FlightRecord = flight.Record

// FlightDefaultCap is the ring capacity NewFlightRing selects for
// cap <= 0.
const FlightDefaultCap = flight.DefaultCap

// NewFlightRing returns a recorder retaining the most recent cap
// records (cap <= 0 selects FlightDefaultCap).
func NewFlightRing(cap int) *FlightRing { return flight.NewRing(cap) }

// NewObsHandler returns the observer's HTTP surface: GET /metrics
// (Prometheus text format), GET /healthz (200 while healthy, 503 with
// the state name once degraded or lost), and /debug/pprof/.
func NewObsHandler(o *Observer) http.Handler { return obs.NewHandler(o) }

// RunClusterObserved is RunCluster with per-node and aggregate power
// metrics published to o on the sampling interval.
func RunClusterObserved(specs []ClusterNodeSpec, sampleEvery time.Duration, o *Observer) (ClusterResult, error) {
	return cluster.RunObserved(specs, sampleEvery, o)
}
