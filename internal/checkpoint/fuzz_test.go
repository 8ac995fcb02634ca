package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/checkpoint"
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden checkpoint and fuzz corpus")

const goldenPath = "testdata/golden_v1.ckpt"

// goldenData builds the fixed scenario behind the committed golden
// checkpoint: MAGUS on Intel+A100 running gemm under the pcm-flaky
// fault preset, checkpointed 5 s in.
func goldenData(t *testing.T) *checkpoint.Data {
	t.Helper()
	prog, ok := workload.ByName("gemm")
	if !ok {
		t.Fatal("no gemm program")
	}
	plan, ok := faults.Preset("pcm-flaky")
	if !ok {
		t.Fatal("no pcm-flaky preset")
	}
	plan.Seed = 9
	d, err := harness.Checkpoint(node.IntelA100(), prog, core.New(core.DefaultConfig()),
		harness.Options{Seed: 9, Faults: plan, TraceInterval: 100 * time.Millisecond}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestGoldenCheckpoint pins the wire format: the committed golden blob
// must keep decoding under the current schema, and a resumed run from
// it must finish with the same result as the uninterrupted run. If a
// schema change breaks this test, the fix is a format Version bump (and
// a regenerated golden) — never a silent re-interpretation of old
// bytes.
func TestGoldenCheckpoint(t *testing.T) {
	if *update {
		blob, err := checkpoint.Encode(goldenData(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		writeFuzzCorpus(t, blob)
		return
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/checkpoint -run Golden -update` to create)", err)
	}
	d, err := checkpoint.Decode(blob)
	if err != nil {
		t.Fatalf("golden checkpoint no longer decodes: %v\n"+
			"a Data/State schema change must bump checkpoint.Version and regenerate the golden", err)
	}
	if d.Program != "gemm" || d.GovName != core.New(core.DefaultConfig()).Name() {
		t.Fatalf("golden decoded to %s/%s, want gemm under MAGUS", d.Program, d.GovName)
	}

	// The golden must remain semantically resumable, not just parseable.
	prog, _ := workload.ByName("gemm")
	plan, _ := faults.Preset("pcm-flaky")
	plan.Seed = 9
	want, err := harness.Run(node.IntelA100(), prog, core.New(core.DefaultConfig()),
		harness.Options{Seed: 9, Faults: plan, TraceInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	st, err := harness.Resume(d, harness.ResumeOptions{Gov: core.New(core.DefaultConfig())})
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		if _, err := st.Advance(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Result()
	got.Traces, want.Traces = nil, nil
	if got != want {
		t.Fatalf("golden resume diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestValidateRejectsBadNoise: a decoded blob is outside input, so a
// PCM noise amplitude that no run could have been built with, or a
// noise-stream position without an amplitude, must be refused.
func TestValidateRejectsBadNoise(t *testing.T) {
	for _, tc := range []struct {
		amp   float64
		draws uint64
	}{{-0.1, 0}, {math.NaN(), 0}, {math.Inf(1), 0}, {0, 3}} {
		d := goldenData(t)
		d.PCMNoise, d.NoiseDraws = tc.amp, tc.draws
		if err := d.Validate(); err == nil {
			t.Errorf("PCMNoise %v with %d draws validated", tc.amp, tc.draws)
		}
	}
}

// writeFuzzCorpus regenerates the committed seed corpus: the golden
// blob itself plus systematically corrupted variants of it, in the
// go-fuzz corpus file format.
func writeFuzzCorpus(t *testing.T, golden []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), golden...)
		f(b)
		return b
	}
	seeds := map[string][]byte{
		"golden":        golden,
		"empty":         {},
		"short":         golden[:16],
		"header-only":   golden[:24],
		"bad-magic":     mut(func(b []byte) { b[0] = 'X' }),
		"bad-version":   mut(func(b []byte) { binary.BigEndian.PutUint32(b[8:], 999) }),
		"huge-length":   mut(func(b []byte) { binary.BigEndian.PutUint64(b[12:], 1<<40) }),
		"bad-crc":       mut(func(b []byte) { b[20] ^= 0xff }),
		"flipped-gob":   mut(func(b []byte) { b[len(b)/2] ^= 0x55 }),
		"truncated-gob": golden[:len(golden)-len(golden)/3],
	}
	for name, b := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzCheckpointDecode pins Decode's hostile-input contract: corrupted,
// truncated or adversarial blobs must produce an error — never a panic
// and never a silently mis-restored Data. Anything that does decode
// must be structurally valid and survive a re-encode round trip.
func FuzzCheckpointDecode(f *testing.F) {
	if golden, err := os.ReadFile(goldenPath); err == nil {
		f.Add(golden)
		tr := append([]byte(nil), golden...)
		binary.BigEndian.PutUint32(tr[8:], 2)
		f.Add(tr)
	}
	f.Add([]byte{})
	f.Add([]byte("MAGUSCKP"))
	f.Add([]byte("MAGUSCKP\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := checkpoint.Decode(b)
		if err != nil {
			if d != nil {
				t.Fatal("Decode returned data alongside an error")
			}
			return
		}
		// A successful decode must yield a blob that validates and
		// re-encodes; Encode runs Validate internally.
		blob, err := checkpoint.Encode(d)
		if err != nil {
			t.Fatalf("decoded checkpoint fails re-encode: %v", err)
		}
		d2, err := checkpoint.Decode(blob)
		if err != nil {
			t.Fatalf("re-encoded checkpoint fails decode: %v", err)
		}
		if d2.Program != d.Program || d2.GovName != d.GovName || d2.Engine.Now != d.Engine.Now {
			t.Fatal("round trip changed checkpoint identity")
		}
	})
}

// TestFuzzCorpusCommitted guards against the seed corpus silently
// disappearing: the committed files must exist and each must hit the
// documented outcome (golden decodes, every corruption errors).
func TestFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/checkpoint -run Golden -update` to create)", err)
	}
	if len(entries) < 8 {
		t.Fatalf("seed corpus has %d entries, want >= 8", len(entries))
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var b []byte
		if _, err := fmt.Sscanf(string(raw), "go test fuzz v1\n[]byte(%q)\n", &b); err != nil {
			t.Fatalf("%s: not a v1 corpus file: %v", e.Name(), err)
		}
		_, decErr := checkpoint.Decode(b)
		if bytes.Equal(b, golden) {
			if decErr != nil {
				t.Errorf("%s: golden seed fails to decode: %v", e.Name(), decErr)
			}
		} else if decErr == nil {
			t.Errorf("%s: corrupted seed decoded without error", e.Name())
		}
	}
}
