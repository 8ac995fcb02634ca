package harness

import (
	"testing"

	"github.com/spear-repro/magus/internal/node"
)

func TestSystemByName(t *testing.T) {
	for _, name := range []string{
		"Intel+A100", "a100", "Intel+4A100", "4a100", "Intel+Max1550", "max1550",
		"Intel CPU-only", "cpuonly", "AMD+MI250", "amd",
	} {
		if _, err := SystemByName(name); err != nil {
			t.Errorf("SystemByName(%q): %v", name, err)
		}
	}
	if _, err := SystemByName("epyc"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestGovernorByName(t *testing.T) {
	cfg := node.IntelA100()
	for _, name := range []string{"magus", "ups", "duf", "default", "max", "min"} {
		g, err := GovernorByName(name, cfg)
		if err != nil {
			t.Fatalf("GovernorByName(%q): %v", name, err)
		}
		if g.Name() == "" {
			t.Errorf("GovernorByName(%q) has no name", name)
		}
	}
	if _, err := GovernorByName("", cfg); err == nil {
		t.Error("empty governor name accepted")
	}
}
