package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/workload"
)

// TestSoakMultiTenant is the chaos test the robustness PR hangs on:
// 64 concurrent tenant sessions — a mix of governors, fault presets
// and deliberately panicking tenants — driven to completion from many
// goroutines while extra load hammers the admission limit. It asserts:
//
//   - every well-behaved tenant finishes with the identical result of
//     the equivalent direct harness.Run (no cross-contamination);
//   - every panicking tenant is contained: ErrSessionFailed for it,
//     no effect on anyone else;
//   - overload sheds explicitly (ErrSessionLimit/ErrOverloaded),
//     never hangs;
//   - the final drain completes inside its deadline.
//
// Run it under -race: the point is that tenant isolation holds under
// real concurrency.
func TestSoakMultiTenant(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short")
	}

	const tenants = 64
	workloads := []string{"bfs", "gemm", "cfd"}
	governors := []string{"magus", "ups", "duf", "default"}
	presets := []string{"", "pcm-flaky", "", "pcm-outage", ""}

	type tenantSpec struct {
		spec    Spec
		hostile bool // injects a panic on the tenant's 3rd step
	}
	specs := make([]tenantSpec, tenants)
	for i := range specs {
		specs[i] = tenantSpec{
			spec: Spec{
				Tenant:   fmt.Sprintf("tenant-%02d", i),
				Workload: workloads[i%len(workloads)],
				Governor: governors[i%len(governors)],
				Faults:   presets[i%len(presets)],
				Seed:     int64(i + 1),
				Waste:    i%4 == 0,
			},
			hostile: i%16 == 5, // 4 of 64 tenants are hostile
		}
	}

	// Expected results for the well-behaved tenants, computed without
	// the serve layer. Identical outcomes prove tenant isolation.
	expect := make(map[string]harness.Result, tenants)
	var expectMu sync.Mutex
	var refWG sync.WaitGroup
	for _, ts := range specs {
		if ts.hostile {
			continue
		}
		refWG.Add(1)
		go func(sp Spec) {
			defer refWG.Done()
			cfg, err := harness.SystemByName(cmp.Or(sp.System, "a100"))
			if err != nil {
				t.Error(err)
				return
			}
			prog, _ := workload.ByName(sp.Workload)
			gov, err := harness.GovernorByName(cmp.Or(sp.Governor, "magus"), cfg)
			if err != nil {
				t.Error(err)
				return
			}
			opt := harness.Options{Seed: sp.Seed}
			if sp.Faults != "" {
				plan, _ := faults.Preset(sp.Faults)
				plan.Seed = sp.Seed
				opt.Faults = plan
			}
			res, err := harness.Run(cfg, prog, gov, opt)
			if err != nil {
				t.Errorf("%s: reference run: %v", sp.Tenant, err)
				return
			}
			expectMu.Lock()
			expect[sp.Tenant] = res
			expectMu.Unlock()
		}(ts.spec)
	}
	refWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	mg := NewManager(Config{
		MaxSessions: tenants,
		MaxInflight: 8,
		MaxQueue:    256, // the tenant herd itself must not shed creates
		IdleExpiry:  -1,  // reaper exercised separately in TestIdleExpiry
	})

	var shed, limited atomic.Int64

	// Phase 1: admit the full herd, concurrently, before any pressure
	// load exists — all 64 must fit the limit exactly.
	ids := make([]string, tenants)
	failures := make([]error, tenants)
	var admitWG sync.WaitGroup
	for i, ts := range specs {
		admitWG.Add(1)
		go func(i int, sp Spec) {
			defer admitWG.Done()
			st, err := mg.Create(sp)
			if err != nil {
				failures[i] = fmt.Errorf("create: %w", err)
				return
			}
			ids[i] = st.ID
		}(i, ts.spec)
	}
	admitWG.Wait()
	for i, err := range failures {
		if err != nil {
			t.Fatalf("%s: %v", specs[i].spec.Tenant, err)
		}
	}

	// Phase 2: background pressure — constant creates above the now
	// fully occupied admission limit must 429, never hang and never
	// evict a live tenant.
	stopPressure := make(chan struct{})
	pressureDone := make(chan struct{})
	go func() {
		defer close(pressureDone)
		for i := 0; ; i++ {
			select {
			case <-stopPressure:
				return
			default:
			}
			_, err := mg.Create(Spec{Tenant: fmt.Sprintf("gate-crasher-%d", i), Workload: "bfs"})
			switch {
			case err == nil:
				t.Error("create above the admission limit succeeded")
				return
			case errors.Is(err, ErrSessionLimit):
				limited.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("gate crasher: unexpected error %v", err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Phase 3: the herd steps to completion with ragged,
	// per-tenant-random step sizes.
	results := make([]StepResult, tenants)
	var herd sync.WaitGroup
	for i, ts := range specs {
		herd.Add(1)
		go func(i int, ts tenantSpec) {
			defer herd.Done()
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			id := ids[i]
			if ts.hostile {
				s, lerr := mg.lookup(id)
				if lerr != nil {
					failures[i] = lerr
					return
				}
				var n atomic.Int64
				s.stepHook = func() {
					if n.Add(1) == 3 {
						panic("soak: hostile tenant " + ts.spec.Tenant)
					}
				}
			}
			for step := 0; step < 10000; step++ {
				d := time.Duration(200+rng.Intn(4800)) * time.Millisecond
				res, serr := mg.Step(id, d)
				switch {
				case serr == nil:
					if res.Done {
						results[i] = res
						return
					}
				case errors.Is(serr, ErrOverloaded):
					shed.Add(1)
					time.Sleep(time.Millisecond)
				case errors.Is(serr, ErrSessionFailed) && ts.hostile:
					failures[i] = serr // expected containment
					return
				default:
					failures[i] = fmt.Errorf("step: %w", serr)
					return
				}
			}
			failures[i] = errors.New("never completed")
		}(i, ts)
	}

	herdDone := make(chan struct{})
	go func() {
		herd.Wait()
		close(herdDone)
	}()
	select {
	case <-herdDone:
	case <-time.After(5 * time.Minute):
		t.Fatal("soak herd wedged") // a hang is exactly the bug this test hunts
	}
	close(stopPressure)
	<-pressureDone

	// Verdicts.
	for i, ts := range specs {
		if ts.hostile {
			if !errors.Is(failures[i], ErrSessionFailed) {
				t.Errorf("%s: hostile tenant not contained: %v", ts.spec.Tenant, failures[i])
			}
			continue
		}
		if failures[i] != nil {
			t.Errorf("%s: %v", ts.spec.Tenant, failures[i])
			continue
		}
		want, ok := expect[ts.spec.Tenant]
		if !ok {
			continue
		}
		got := results[i].Result
		if got == nil {
			t.Errorf("%s: no result", ts.spec.Tenant)
			continue
		}
		if got.RuntimeS != want.RuntimeS || got.TotalEnergyJ != want.TotalEnergyJ() ||
			got.PkgEnergyJ != want.PkgEnergyJ || got.GPUEnergyJ != want.GPUEnergyJ {
			t.Errorf("%s: served result diverged from direct run:\n got  %+v\n want runtime %v pkg %v gpu %v total %v",
				ts.spec.Tenant, got, want.RuntimeS, want.PkgEnergyJ, want.GPUEnergyJ, want.TotalEnergyJ())
		}
	}
	if limited.Load() == 0 {
		t.Error("admission pressure never observed ErrSessionLimit")
	}
	t.Logf("soak: %d tenants, %d limited creates, %d shed requests", tenants, limited.Load(), shed.Load())

	// Health must reflect the hostile tenants without a service outage.
	if h := mg.Health(); h.Status != "ok" || h.Lost == 0 {
		t.Errorf("post-soak health = %+v", h)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := mg.Close(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
}

// TestConcurrentMixedOps hammers every manager entry point at once —
// create, step, get, list, health, close, reap — looking for data
// races and deadlocks rather than specific outcomes.
func TestConcurrentMixedOps(t *testing.T) {
	mg := newTestManager(t, Config{MaxSessions: 16, MaxInflight: 4, MaxQueue: 8, IdleExpiry: -1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(6) {
				case 0:
					mg.Create(Spec{Tenant: fmt.Sprintf("w%d", w), Workload: "bfs", Seed: int64(w + 1)})
				case 1:
					if l := mg.List(); len(l) > 0 {
						mg.Step(l[rng.Intn(len(l))].ID, 500*time.Millisecond)
					}
				case 2:
					if l := mg.List(); len(l) > 0 {
						mg.Get(l[rng.Intn(len(l))].ID)
					}
				case 3:
					mg.Health()
				case 4:
					if l := mg.List(); len(l) > 0 && rng.Intn(4) == 0 {
						mg.CloseSession(l[rng.Intn(len(l))].ID)
					}
				case 5:
					mg.reapOnce()
				}
			}
		}(w)
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
}
