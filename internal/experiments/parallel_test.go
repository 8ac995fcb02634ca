package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestFigure4DeterministicAcrossJobs is the engine's headline
// regression guarantee: a figure produced at jobs=8 is byte-identical
// to the serial (jobs=1) one.
func TestFigure4DeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) []byte {
		res, err := Figure4("Intel+4A100", Options{Repeats: 2, Seed: 1, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	par := run(8)
	if !bytes.Equal(serial, par) {
		t.Fatalf("Figure4 jobs=8 diverges from jobs=1:\nserial: %s\nparallel: %s", serial, par)
	}
}

// TestTable2DeterministicAcrossJobs extends the byte-identity
// guarantee to a table (Table 2's cells run outside harness.RunBatch,
// straight on the pool).
func TestTable2DeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) []byte {
		res, err := Table2(30*time.Second, Options{Repeats: 1, Seed: 1, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	par := run(8)
	if !bytes.Equal(serial, par) {
		t.Fatalf("Table2 jobs=8 diverges from jobs=1:\nserial: %s\nparallel: %s", serial, par)
	}
}

// TestNoiseStudyDeterministicAcrossJobs covers the one grid whose
// cells carry mutable per-cell state (the noise closures): per-repeat
// closures must make even the noisy sweep jobs-invariant.
func TestNoiseStudyDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) []byte {
		res, err := NoiseStudy("bfs", Options{Repeats: 2, Seed: 1, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := run(1)
	par := run(8)
	if !bytes.Equal(serial, par) {
		t.Fatalf("NoiseStudy jobs=8 diverges from jobs=1:\nserial: %s\nparallel: %s", serial, par)
	}
}

// BenchmarkFigure4aJobs measures the wall-clock effect of the worker
// pool on the paper's largest single-system grid (Figure 4a: 20 apps ×
// 3 governors × repeats). Jobs>GOMAXPROCS adds nothing on a small
// machine; the pool suite of BENCH.json records the measured times
// with the GOMAXPROCS they were taken at.
func BenchmarkFigure4aJobs(b *testing.B) {
	for _, jobs := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "jobs=1", 2: "jobs=2", 4: "jobs=4"}[jobs], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Figure4("Intel+A100", Options{Repeats: 1, Seed: 1, Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
