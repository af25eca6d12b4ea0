package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goFiles returns the non-test Go files of internal/<pkg>.
func goFiles(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("internal/%s: no Go files found (err %v)", pkg, err)
	}
	var out []string
	for _, path := range files {
		if !strings.HasSuffix(path, "_test.go") {
			out = append(out, path)
		}
	}
	return out
}

func parseFile(t *testing.T, fset *token.FileSet, path string) *ast.File {
	t.Helper()
	file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// TestOneWindowKernel keeps the window's duplicates from growing back:
// this package is the only implementation of the sliding window, so no
// non-test file of it or of the layers built on it may declare a []bool
// struct field (a hand-rolled ring) or a function with one of the names
// the old copies used — among them the per-request block loops that the
// one block kernel, Window.slide, replaced. The replica reference model is
// the one exemption — it is the oracle and deliberately shares no window
// code with what it checks.
func TestOneWindowKernel(t *testing.T) {
	banned := map[string]bool{
		"push": true, "readMajority": true, "appendPackedWindow": true, "unpackWindow": true,
		"slideBlock": true, "slideSum": true, "slideCode": true,
	}
	for _, pkg := range []string{"core", "sim", "tree", "wire", "replica"} {
		fset := token.NewFileSet()
		for _, path := range goFiles(t, pkg) {
			if pkg == "replica" && filepath.Base(path) == "model.go" {
				continue
			}
			ast.Inspect(parseFile(t, fset, path), func(n ast.Node) bool {
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

// TestBlockFormInventory keeps the block forms and what checks and uses
// them in step: every type of this package with an ApplyBlock method must
// be built in TestApplyBlockMatchesApply and have a case in internal/sim's
// applyBlock and kindOf switches, and those switches may name no type
// without one.
func TestBlockFormInventory(t *testing.T) {
	fset := token.NewFileSet()
	forms := map[string]bool{}
	ctors := map[string]string{} // constructor → the type it returns
	for _, path := range goFiles(t, "core") {
		for _, decl := range parseFile(t, fset, path).Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Recv != nil {
				if fn.Name.Name == "ApplyBlock" {
					forms[typeName(fn.Recv.List[0].Type)] = true
				}
				continue
			}
			if res := fn.Type.Results; strings.HasPrefix(fn.Name.Name, "New") && res != nil && len(res.List) == 1 {
				if name := typeName(res.List[0].Type); name != "" {
					ctors[fn.Name.Name] = name
				}
			}
		}
	}
	if len(forms) == 0 {
		t.Fatal("no ApplyBlock methods found")
	}

	tested := map[string]bool{}
	if body := funcBody(t, parseFile(t, fset, "policy_test.go"), "TestApplyBlockMatchesApply"); body != nil {
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && ctors[id.Name] != "" {
					tested[ctors[id.Name]] = true
				}
			}
			return true
		})
	}
	checkInventory(t, "TestApplyBlockMatchesApply builds", forms, tested)

	kernel := parseFile(t, fset, filepath.Join("..", "sim", "kernel.go"))
	for _, name := range []string{"applyBlock", "kindOf"} {
		cases := map[string]bool{}
		if body := funcBody(t, kernel, name); body != nil {
			ast.Inspect(body, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						if star, ok := e.(*ast.StarExpr); ok {
							if sel, ok := star.X.(*ast.SelectorExpr); ok {
								cases[sel.Sel.Name] = true
							}
						}
					}
				}
				return true
			})
		}
		checkInventory(t, "sim's "+name+" switches on", forms, cases)
	}
}

// typeName returns T for an expression T or *T, else "".
func typeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// funcBody returns the body of the named top-level function in file.
func funcBody(t *testing.T, file *ast.File, name string) *ast.BlockStmt {
	t.Helper()
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == name {
			return fn.Body
		}
	}
	t.Errorf("func %s not found", name)
	return nil
}

// checkInventory reports the block forms missing from got, and what got
// names that has no block form.
func checkInventory(t *testing.T, what string, forms, got map[string]bool) {
	t.Helper()
	var missing, extra []string
	for name := range forms {
		if !got[name] {
			missing = append(missing, name)
		}
	}
	for name := range got {
		if !forms[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing) > 0 {
		t.Errorf("%s no %v, which have a block form", what, missing)
	}
	if len(extra) > 0 {
		t.Errorf("%s %v, which have no block form", what, extra)
	}
}
