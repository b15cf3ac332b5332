package polarcxlmem

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoDeadDiscards is the unused-symbol lint: it walks every .go file in
// the repo and flags the two discard idioms that exist only to hide dead
// code from the compiler:
//
//   - `var _ = expr` with no type — a package-level (or local) value
//     evaluated and thrown away. The TYPED form `var _ Iface = expr` is a
//     compile-time interface assertion and stays legal.
//   - a bare `_ = ident` statement discarding a plain identifier or
//     selector (e.g. `_ = cpuNs`, `_ = simclock.Second`) in non-test
//     files. Discarding a call's result can be a legitimate "error
//     intentionally ignored"; discarding a NAME is always a vestige of
//     deleted code. Test files get latitude here (compile-only probes),
//     non-test code does not.
//
// Several of these had accumulated in the bench package, masking real
// measurement bugs (a captured-then-discarded CPU counter). This test keeps
// them from coming back.
func TestNoDeadDiscards(t *testing.T) {
	fset := token.NewFileSet()
	var bad []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || strings.HasPrefix(name, ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return fmt.Errorf("parsing %s: %w", path, perr)
		}
		isTest := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.GenDecl:
				if node.Tok != token.VAR {
					return true
				}
				for _, spec := range node.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || vs.Type != nil || len(vs.Values) == 0 {
						continue // typed `var _ Iface = x` is an interface assertion
					}
					for _, id := range vs.Names {
						if id.Name == "_" {
							bad = append(bad, fmt.Sprintf("%s: untyped `var _ = ...` discard", fset.Position(id.Pos())))
						}
					}
				}
			case *ast.AssignStmt:
				if isTest || node.Tok != token.ASSIGN || len(node.Lhs) != 1 || len(node.Rhs) != 1 {
					return true
				}
				lhs, ok := node.Lhs[0].(*ast.Ident)
				if !ok || lhs.Name != "_" {
					return true
				}
				switch node.Rhs[0].(type) {
				case *ast.Ident, *ast.SelectorExpr:
					bad = append(bad, fmt.Sprintf("%s: dead `_ = name` discard", fset.Position(node.Pos())))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
	if len(bad) > 0 {
		t.Fatalf("%d dead discard(s); delete the vestige (or, for a call whose error is deliberately ignored, keep the call expression)", len(bad))
	}
}

// TestNoWallClockInProduct is the wall-clock gate: virtual time is the
// model's answer, so non-test product code must not read the wall clock or
// yield to the Go scheduler — either would let the host machine decide a
// simulated result. It fails on any reference to time.Now, time.Since or
// runtime.Gosched outside the allowed callers: cmd/ (the stderr progress
// line) and the free-goroutine collect loop in internal/wal/groupcommit.go.
// perfbench/ is its own module, measuring wall time on purpose.
func TestNoWallClockInProduct(t *testing.T) {
	banned := map[string]map[string]bool{
		"time":    {"Now": true, "Since": true},
		"runtime": {"Gosched": true},
	}
	allowed := func(path string) bool {
		return strings.HasPrefix(path, "cmd"+string(filepath.Separator)) ||
			path == filepath.Join("internal", "wal", "groupcommit.go")
	}
	fset := token.NewFileSet()
	var bad []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "perfbench" || name == "testdata" || strings.HasPrefix(name, ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || allowed(path) {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return fmt.Errorf("parsing %s: %w", path, perr)
		}
		// Local import names of the watched packages (aliases included).
		local := map[string]map[string]bool{}
		for _, imp := range f.Imports {
			pkg := strings.Trim(imp.Path.Value, `"`)
			if names, ok := banned[pkg]; ok {
				name := pkg
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = names
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && local[x.Name][sel.Sel.Name] {
				bad = append(bad, fmt.Sprintf("%s: %s.%s", fset.Position(sel.Pos()), x.Name, sel.Sel.Name))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
	if len(bad) > 0 {
		t.Fatalf("%d wall-clock reference(s) in product code; charge a simclock.Clock instead", len(bad))
	}
}

// TestPageWrapOnlyInBuffer is the single-page-path gate: buffer.Visit is
// the only way to a pool page's bytes, so non-test code may call page.Wrap
// only inside internal/buffer. Anywhere else a page comes from a visit (or,
// for an off-pool image, from page.Image).
func TestPageWrapOnlyInBuffer(t *testing.T) {
	const pagePkg = "polarcxlmem/internal/page"
	inBuffer := func(path string) bool {
		return strings.HasPrefix(path, filepath.Join("internal", "buffer")+string(filepath.Separator))
	}
	fset := token.NewFileSet()
	var bad []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || inBuffer(path) {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return fmt.Errorf("parsing %s: %w", path, perr)
		}
		local := "" // the page package's local name in this file, if imported
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == pagePkg {
				local = "page"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wrap" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					bad = append(bad, fmt.Sprintf("%s: %s.Wrap", fset.Position(sel.Pos()), x.Name))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Error(b)
	}
	if len(bad) > 0 {
		t.Fatalf("%d page.Wrap call(s) outside internal/buffer; reach the page through buffer.Visit", len(bad))
	}
}

// maxWiringSetters bounds the SetObserver/SetInjector methods product code
// may declare. Components take their registry (nil for none) in their
// constructor instead; the count only goes down.
const maxWiringSetters = 6

// TestWiringSetterRatchet is the wiring ratchet: it counts the SetObserver
// and SetInjector methods declared in non-test code and fails when there
// are more than maxWiringSetters. Lower the bound when a setter goes.
func TestWiringSetterRatchet(t *testing.T) {
	fset := token.NewFileSet()
	var found []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "perfbench" || name == "testdata" || strings.HasPrefix(name, ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return fmt.Errorf("parsing %s: %w", path, perr)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Recv != nil && (fd.Name.Name == "SetObserver" || fd.Name.Name == "SetInjector") {
				found = append(found, fmt.Sprintf("%s: %s", fset.Position(fd.Pos()), fd.Name.Name))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) > maxWiringSetters {
		t.Fatalf("%d SetObserver/SetInjector methods, at most %d allowed; take the registry or injector in the constructor instead:\n%s",
			len(found), maxWiringSetters, strings.Join(found, "\n"))
	}
	t.Logf("%d SetObserver/SetInjector methods (bound %d)", len(found), maxWiringSetters)
}
