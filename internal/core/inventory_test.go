package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneWindowKernel keeps the window's duplicates from growing back:
// this package is the only implementation of the sliding window, so no
// non-test file of the layers built on it may declare a []bool struct
// field (a hand-rolled ring) or a function with one of the names the old
// copies used. The replica reference model is the one exemption — it is
// the oracle and deliberately shares no window code with what it checks.
func TestOneWindowKernel(t *testing.T) {
	banned := map[string]bool{"push": true, "readMajority": true, "appendPackedWindow": true, "unpackWindow": true}
	for _, pkg := range []string{"sim", "tree", "wire", "replica"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("internal/%s: no Go files found (err %v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") || (pkg == "replica" && filepath.Base(path) == "model.go") {
				continue
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if banned[n.Name.Name] {
						t.Errorf("%s: func %s re-implements a window step; use core.Window",
							fset.Position(n.Pos()), n.Name.Name)
					}
				case *ast.StructType:
					for _, f := range n.Fields.List {
						if arr, ok := f.Type.(*ast.ArrayType); ok && arr.Len == nil {
							if elem, ok := arr.Elt.(*ast.Ident); ok && elem.Name == "bool" {
								t.Errorf("%s: []bool struct field; window bits live in core.Window",
									fset.Position(f.Pos()))
							}
						}
					}
				}
				return true
			})
		}
	}
}
