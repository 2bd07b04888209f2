package lossyckpt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	lossyckpt "repro"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's
// quickstart does: build a system, solve under lossy checkpointing,
// fail, recover, converge.
func TestFacadeEndToEnd(t *testing.T) {
	a := lossyckpt.Poisson3D(8)
	b := lossyckpt.OnesRHS(a.Rows)
	cg := lossyckpt.NewCG(a, nil, b, nil, lossyckpt.SeqSpace{}, lossyckpt.SolverOptions{RTol: 1e-7})
	mgr, err := lossyckpt.NewManager(lossyckpt.ManagerConfig{
		Scheme:   lossyckpt.Lossy,
		Interval: 5,
		SZParams: lossyckpt.SZParams{Mode: lossyckpt.PWRel, ErrorBound: 1e-4},
	}, lossyckpt.NewMemStorage(), cg)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, a.Rows)
	failed := false
	res, err := lossyckpt.RunToConvergence(cg, lossyckpt.SolverOptions{}, func(it int, rnorm float64) error {
		if mgr.Due() {
			if _, err := mgr.Checkpoint(); err != nil {
				return err
			}
		}
		if it == 12 && !failed {
			failed = true
			rep, err := mgr.RecoverTiered(x0)
			if err != nil {
				return err
			}
			if rep.Iteration != 10 {
				t.Errorf("recovered to iteration %d, want the checkpoint at 10", rep.Iteration)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("facade solve did not converge")
	}
	if !failed {
		t.Fatal("failure injection did not run")
	}
}

// TestFacadeSurface keeps the facade from regrowing unnoticed: every
// exported identifier lossyckpt.go declares must be written as
// lossyckpt.<Name> somewhere under examples/ or in README.md.
func TestFacadeSurface(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "lossyckpt.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() {
						exported = append(exported, sp.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if n.IsExported() {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}
	if len(exported) == 0 {
		t.Fatal("no exported identifiers found in lossyckpt.go")
	}

	users, err := filepath.Glob("examples/*/*.go")
	if err != nil || len(users) == 0 {
		t.Fatalf("no example sources found: %v", err)
	}
	var text []byte
	for _, path := range append(users, "README.md") {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text = append(text, b...)
	}
	for _, name := range exported {
		if !regexp.MustCompile(`\blossyckpt\.` + name + `\b`).Match(text) {
			t.Errorf("lossyckpt.%s is exported but neither examples/ nor README.md uses it", name)
		}
	}
}
