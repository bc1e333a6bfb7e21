package iocost_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"github.com/iocost-sim/iocost"
)

// The facade test exercises the public API end-to-end the way the README's
// quickstart does.
func TestPublicAPIQuickstart(t *testing.T) {
	m := iocost.MustNewMachine(iocost.MachineConfig{
		Device:     iocost.SSD(iocost.OlderGenSSD()),
		Controller: iocost.ControllerIOCost,
		Seed:       1,
	})
	if m.IOCost == nil {
		t.Fatal("IOCost controller not exposed")
	}
	hi := m.Workload.NewChild("hi", 200)
	lo := m.Workload.NewChild("lo", 100)
	var ws []*iocost.Saturator
	for i, cg := range []*iocost.CGroup{hi, lo} {
		w := iocost.NewSaturator(m.Q, iocost.SaturatorConfig{
			CG: cg, Op: iocost.Read, Pattern: iocost.RandomAccess,
			Size: 4096, Depth: 32, Region: int64(i) << 35, Seed: uint64(i + 1),
		})
		w.Start()
		ws = append(ws, w)
	}
	m.Run(1 * iocost.Second)
	for i := range ws {
		ws[i].Stats.TakeWindow()
	}
	m.Run(3 * iocost.Second)
	nHi, nLo := ws[0].Stats.TakeWindow(), ws[1].Stats.TakeWindow()
	if nLo == 0 {
		t.Fatal("low-priority workload starved")
	}
	ratio := float64(nHi) / float64(nLo)
	if ratio < 1.6 || ratio > 2.5 {
		t.Errorf("public-API 2:1 scenario produced ratio %.2f", ratio)
	}
	if v := m.IOCost.Vrate(); v <= 0 {
		t.Errorf("vrate = %v", v)
	}
}

func TestPublicAPIProfile(t *testing.T) {
	spec := iocost.NewerGenSSD()
	res := iocost.Profile(func(eng *iocost.Engine) iocost.Device {
		return iocost.NewSSDDevice(eng, spec, 1)
	}, iocost.ProfileOptions{
		Warmup: 300 * iocost.Millisecond, Measure: 300 * iocost.Millisecond, Depth: 64,
	})
	if err := res.Params.Validate(); err != nil {
		t.Fatalf("profiled params invalid: %v", err)
	}
	if res.RandReadIOPS <= 0 {
		t.Error("no measured IOPS")
	}
}

// TestFacadeExportsHaveCallers keeps the facade lean: every name iocost.go
// exports must be used as iocost.<Name> by an example, a command or a root
// test file other than this one, or be named by the signature of an exported
// function (SSD's DeviceChoice result, say).
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "iocost.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	used := map[string]bool{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			exported = append(exported, d.Name.Name)
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					exported = append(exported, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						exported = append(exported, id.Name)
					}
				}
			}
		}
	}

	callers, _ := filepath.Glob("*_test.go")
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
			if strings.HasSuffix(path, ".go") {
				callers = append(callers, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range callers {
		if path == "facade_test.go" {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "iocost" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	for _, name := range exported {
		if ast.IsExported(name) && !used[name] {
			t.Errorf("iocost.%s has no caller in examples/, cmd/ or a root test; delete it", name)
		}
	}
}
