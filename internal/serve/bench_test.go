package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// BenchmarkServeSessionLifecycle measures whole-tenant throughput:
// admit a session, step its workload to completion, close it. This is
// the sessions/sec figure in BENCH.json.
func BenchmarkServeSessionLifecycle(b *testing.B) {
	mg := NewManager(Config{MaxSessions: 4, IdleExpiry: -1})
	defer mg.Close(context.Background())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := mg.Create(Spec{Tenant: "bench", Workload: "bfs", Governor: "magus", Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		for {
			res, err := mg.Step(st.ID, 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if res.Done {
				break
			}
		}
		if err := mg.CloseSession(st.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkServeStepRequest measures manager-level step request
// throughput: many small virtual advances against one long-lived
// session. When its workload completes the session is replaced outside
// the timer, so per-op cost is the step path alone for any b.N.
func BenchmarkServeStepRequest(b *testing.B) {
	mg := NewManager(Config{MaxSessions: 4, IdleExpiry: -1})
	defer mg.Close(context.Background())
	newSess := func() string {
		st, err := mg.Create(Spec{Tenant: "bench", Workload: "bfs", Governor: "magus", Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return st.ID
	}
	id := newSess()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mg.Step(id, 100*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if res.Done {
			b.StopTimer()
			mg.CloseSession(id)
			id = newSess()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeHTTPStep is the same request measured end to end over
// the wire — JSON decode, mux, gate, session lock, JSON encode. This
// is the requests/sec figure in BENCH.json. Like StepRequest, it
// replaces a finished session outside the timer.
func BenchmarkServeHTTPStep(b *testing.B) {
	mg := NewManager(Config{MaxSessions: 4, IdleExpiry: -1})
	defer mg.Close(context.Background())
	srv := httptest.NewServer(NewHTTPHandler(mg))
	defer srv.Close()

	newSess := func() string {
		st, err := mg.Create(Spec{Tenant: "bench", Workload: "bfs", Governor: "magus", Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		return st.ID
	}
	id := newSess()
	client := srv.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(srv.URL+"/api/v1/sessions/"+id+"/step",
			"application/json", strings.NewReader(`{"seconds": 0.1}`))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		var sr StepResult
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if sr.Done {
			b.StopTimer()
			mg.CloseSession(id)
			id = newSess()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeHealthz measures the lock-free health aggregation with
// a populated session table.
func BenchmarkServeHealthz(b *testing.B) {
	mg := NewManager(Config{MaxSessions: 64, IdleExpiry: -1})
	defer mg.Close(context.Background())
	for i := 0; i < 64; i++ {
		if _, err := mg.Create(Spec{Tenant: "bench", Workload: "bfs", Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := mg.Health(); h.Sessions != 64 {
			b.Fatalf("health = %+v", h)
		}
	}
}
