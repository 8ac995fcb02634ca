package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/cluster"
	"github.com/spear-repro/magus/internal/workload"
)

const (
	fleetMembers      = 240
	quickFleetMembers = 12
	fleetShards       = 2
	fleetTopK         = 5
)

// fleetCells is the mixed fleet: presets rotate A100/4A100/Max1550,
// the Fig. 4a apps rotate across members as in the fleet study, and
// the governor changes every third member, so every preset×governor
// pair occurs.
func fleetCells(p plan) []cell {
	n := fleetMembers
	if p.quick {
		n = quickFleetMembers
	}
	presets := []string{"a100", "4a100", "max1550"}
	govs := []string{"default", "magus", "ups"}
	apps := workload.SingleGPU()
	cells := make([]cell, n)
	for i := range cells {
		cells[i] = cell{
			sys:  presets[i%len(presets)],
			app:  apps[i%len(apps)],
			gov:  govs[(i/3)%len(govs)],
			seed: p.seed + int64(i)*131,
		}
	}
	return cells
}

func fleetSpecs(cells []cell) []cluster.NodeSpec {
	specs := make([]cluster.NodeSpec, 0, len(cells))
	for i, c := range singles(cells) {
		specs = append(specs, c.nodeSpec(i))
	}
	return specs
}

// fleetOptions are the fleet-scale options the workload exercises:
// sharding, aggregate-only telemetry, member ranking, the waste ledger
// and distribution sketches.
func fleetOptions(topK int) cluster.Options {
	return cluster.Options{
		Shards:    fleetShards,
		Telemetry: cluster.TelemetryAggregate,
		TopK:      topK,
		Waste:     true,
		Dist:      true,
	}
}

// fleetNodeSteps is the simulated node-milliseconds of a fleet run:
// every member steps until the last one finishes.
func fleetNodeSteps(res cluster.Result, members int) int64 {
	return int64(res.MakespanS*1000+0.5) * int64(members)
}

// measureFleet repeats whole cluster.RunFleet passes; one pass is the
// operation whose latency is reported.
func measureFleet(p plan, cells []cell, r *report) error {
	specs, setupS, err := timedSetup(func() ([]cluster.NodeSpec, error) {
		specs := fleetSpecs(cells)
		_, err := cluster.RunFleet(specs[:min(len(specs), quickFleetMembers)], fleetOptions(fleetTopK))
		return specs, err
	}, nil)
	if err != nil {
		return err
	}
	r.metric("setup_s", setupS)

	var ref []byte
	best := bestOf{}
	err = repeatPasses(p, func() error {
		start := time.Now()
		res, err := cluster.RunFleet(specs, fleetOptions(fleetTopK))
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		// The whole fleet is one operation, so its two latency
		// percentiles are both the fastest pass.
		best.add(opKey{}, d, fleetNodeSteps(res, len(specs)))
		b := fleetBytes(res, fleetTopK)
		bad := !res.WasteBalanced
		if ref == nil {
			ref = b
			checkPinned("fleet", p, [][]byte{b}, r)
		} else if !bytes.Equal(b, ref) {
			bad = true
		}
		r.attempted += len(specs)
		if bad {
			r.fail(len(specs), "fleet pass: waste balanced %v, result equal to first pass %v",
				res.WasteBalanced, bytes.Equal(b, ref))
		}
		return nil
	})
	if err != nil {
		return err
	}
	best.report(r)
	return nil
}
