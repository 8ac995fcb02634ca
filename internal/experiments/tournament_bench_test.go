package experiments

import (
	"testing"

	"github.com/spear-repro/magus/internal/core"
)

// benchTournamentOptions is the committed benchmark cell
// (the tournament suite of BENCH.json): a Figure 7-style sensitivity bracket of
// six near-default threshold variants around the base MAGUS on srad,
// as a MagusOnly parameter-tuning sweep. Near-default variants share
// long prefixes with the base run — most decisions are identical
// until a threshold first flips one — which is exactly the workload
// fork-from-prefix exists for. The fixed baseline columns are
// excluded: the planner never accelerates them (they run identically
// in both modes), so including them would only blur the measurement
// of the subsystem under test.
func benchTournamentOptions(scratch bool) TournamentOptions {
	return TournamentOptions{
		Apps: []string{"srad"},
		Variants: []TournamentEntry{
			{Name: "inc5", Mutate: func(c core.Config) core.Config { c.IncThresholdGBs = 5; return c }},
			{Name: "inc7", Mutate: func(c core.Config) core.Config { c.IncThresholdGBs = 7; return c }},
			{Name: "dec13", Mutate: func(c core.Config) core.Config { c.DecThresholdGBs = 13; return c }},
			{Name: "dec17", Mutate: func(c core.Config) core.Config { c.DecThresholdGBs = 17; return c }},
			{Name: "hf35", Mutate: func(c core.Config) core.Config { c.HighFreqThreshold = 0.35; return c }},
			{Name: "hf45", Mutate: func(c core.Config) core.Config { c.HighFreqThreshold = 0.45; return c }},
		},
		Seed:      7,
		Jobs:      1,
		MagusOnly: true,
		Scratch:   scratch,
	}
}

func benchTournament(b *testing.B, scratch bool) {
	opt := benchTournamentOptions(scratch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Tournament(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) != 7 {
			b.Fatalf("got %d cells, want 7", len(res.Cells))
		}
	}
}

// BenchmarkTournamentForked runs the committed tournament cell with
// fork-from-prefix sharing; BenchmarkTournamentScratch is the same
// grid executed from scratch. TestTournamentBenchGridIdentical pins
// the two byte-identical, so the ratio is pure wall-clock saving.
func BenchmarkTournamentForked(b *testing.B)  { benchTournament(b, false) }
func BenchmarkTournamentScratch(b *testing.B) { benchTournament(b, true) }

// TestTournamentBenchGridIdentical pins the benchmark's own grid:
// whatever speedup BENCH.json records, it is for output
// byte-identical to the scratch reference.
func TestTournamentBenchGridIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestTournamentForkedMatchesScratch")
	}
	forked, err := Tournament(benchTournamentOptions(false))
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := Tournament(benchTournamentOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	if f, s := forked.Table().String(), scratch.Table().String(); f != s {
		t.Errorf("forked benchmark grid differs from scratch:\nforked:\n%s\nscratch:\n%s", f, s)
	}
}
