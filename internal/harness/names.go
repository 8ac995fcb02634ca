package harness

import (
	"fmt"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/hsmp"
	"github.com/spear-repro/magus/internal/node"
)

// SystemByName maps a system name, the paper's or its short alias, to
// its node preset.
func SystemByName(name string) (node.Config, error) {
	switch name {
	case "Intel+A100", "a100":
		return node.IntelA100(), nil
	case "Intel+4A100", "4a100":
		return node.Intel4A100(), nil
	case "Intel+Max1550", "max1550":
		return node.IntelMax1550(), nil
	case "Intel CPU-only", "cpuonly":
		return node.IntelCPUOnly(), nil
	case "AMD+MI250", "amd":
		return hsmp.AMDEpycMI250(), nil
	}
	return node.Config{}, fmt.Errorf("harness: unknown system %q", name)
}

// GovernorByName builds a fresh governor by name at its default
// configuration: magus, ups, duf, default, or a static max/min pin at
// cfg's uncore range.
func GovernorByName(name string, cfg node.Config) (governor.Governor, error) {
	switch name {
	case "magus":
		return core.New(core.DefaultConfig()), nil
	case "ups":
		return governor.NewUPS(governor.UPSConfig{}), nil
	case "duf":
		return governor.NewDUF(governor.DUFConfig{}), nil
	case "default":
		return governor.NewDefault(), nil
	case "max":
		return governor.NewStatic(cfg.UncoreMaxGHz), nil
	case "min":
		return governor.NewStatic(cfg.UncoreMinGHz), nil
	}
	return nil, fmt.Errorf("harness: unknown governor %q", name)
}
