package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestFacadeRemovesNoExportedNames is the API gate: the exported
// top-level names of repro.go must be exactly those recorded in
// testdata/api_names.golden.txt. Removing or renaming a name is a
// breaking change, and adding one grows the facade; both fail here until
// the golden is updated in the same reviewed change, with
//
//	UPDATE_API_GOLDEN=1 go test -run TestFacadeRemovesNoExportedNames .
func TestFacadeRemovesNoExportedNames(t *testing.T) {
	current := exportedFacadeNames(t)
	const golden = "testdata/api_names.golden.txt"

	if os.Getenv("UPDATE_API_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(strings.Join(current, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d names to %s", len(current), golden)
		return
	}

	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_API_GOLDEN=1 to create): %v", err)
	}
	recorded := strings.Fields(string(data))
	if missing := namesNotIn(recorded, current); len(missing) > 0 {
		t.Errorf("exported names removed from the facade (breaking change): %v", missing)
	}
	if added := namesNotIn(current, recorded); len(added) > 0 {
		t.Errorf("exported names added to the facade but not to the golden: %v", added)
	}
}

// namesNotIn returns the names of a that b lacks, in a's order.
func namesNotIn(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, name := range b {
		in[name] = true
	}
	var out []string
	for _, name := range a {
		if !in[name] {
			out = append(out, name)
		}
	}
	return out
}

// exportedFacadeNames parses repro.go and returns its exported top-level
// declarations, sorted.
func exportedFacadeNames(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "repro.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(id *ast.Ident) {
		if id != nil && id.IsExported() {
			names = append(names, id.Name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch s := sp.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}
