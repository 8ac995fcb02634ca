package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOneWiring keeps the run wired in one place: no non-test file of
// the module outside internal/harness may build a simulation engine.
// Every experiment, fleet member and daemon session is a harness run,
// so a second hand-built wiring could drift from the first unseen.
// Nested modules (benchmark/) are outside this module and not scanned.
func TestOneWiring(t *testing.T) {
	const simPath = "github.com/spear-repro/magus/internal/sim"
	root := filepath.Join("..", "..")
	harnessDir := filepath.Join(root, "internal", "harness")
	fset := token.NewFileSet()
	inHarness := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		simName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == simPath {
				simName = "sim"
				if imp.Name != nil {
					simName = imp.Name.Name
				}
			}
		}
		if simName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewEngine" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != simName {
				return true
			}
			if filepath.Dir(path) == harnessDir {
				inHarness++
			} else {
				t.Errorf("%s: sim.NewEngine outside internal/harness; wire runs through harness.NewSteppable",
					fset.Position(call.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if inHarness == 0 {
		t.Fatal("found no sim.NewEngine call in internal/harness; the scan is broken")
	}
}
