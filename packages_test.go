package idlog

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageShips requires every package under internal/
// to be a dependency of cmd/idlog or cmd/idlogd. Code only tests use
// belongs under claims/, where it does not count as the product.
func TestEveryInternalPackageShips(t *testing.T) {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	list := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command(goTool, append([]string{"list"}, args...)...).Output()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				t.Fatalf("go list %s: %v\n%s", strings.Join(args, " "), err, ee.Stderr)
			}
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Fields(string(out))
	}
	shipped := map[string]bool{}
	for _, p := range list("-deps", "./cmd/idlog", "./cmd/idlogd") {
		shipped[p] = true
	}
	internal := list("./internal/...")
	if len(internal) == 0 {
		t.Fatal("go list ./internal/... listed no packages")
	}
	for _, p := range internal {
		if !shipped[p] {
			t.Errorf("%s is not reached by cmd/idlog or cmd/idlogd (move test-only code under claims/)", p)
		}
	}
}

// testOnlyAllowed lists the exports TestNoTestOnlyExports lets pass
// although no non-test code names them, each with the reason it stays.
// Methods are keyed by name, package-level names by package.name.
var testOnlyAllowed = map[string]string{
	"Unwrap": "guard.Error's errors.Unwrap method: errors.Is and errors.As call it",
	"Hits":   "fault.Registry accessor: tests in fault and replica read how often a point was consulted",
	"Fired":  "fault.Registry accessor: tests in fault and replica read how often a schedule fired",
	"DisarmAll": "fault.Registry reset: tests in wal, server and replica disarm a registry " +
		"a running component still holds",
	"Usage": "guard.Guard accessor: tests in guard, core and incremental read the exact budget counters",
	"choice.Enumerate": "the KN88 direct semantics (internal/choice/eval.go), the reference the " +
		"Theorem-2 tests in internal/choice and claims E4 compare the translation with",
}

// TestNoTestOnlyExports fails on an exported function, type, variable,
// constant or method declared under internal/ that no non-test Go file
// of the module names: code kept alive only for tests belongs in the
// test files that use it, or under claims/internal/, a test harness by
// design whose own exports are not checked. Uses anywhere count,
// benchmark/ and claims/internal/ included. Package-level names are
// matched by package; methods are matched by name alone, so a call
// through any receiver or interface keeps them. It reads the source
// with go/parser only, so a name can be kept by a same-named use the
// scan cannot tell apart (choice.Eval by a field named Eval).
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		pkg, name string // pkg is "" for methods
		pos       token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	used := map[[2]string]bool{} // {import path or "", name}
	pkgNames := map[string]string{}
	type parsed struct {
		path string
		file *ast.File
	}
	var files []parsed
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/out holds what benchmark/run.sh builds, not source.
			if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && p != "." ||
				filepath.ToSlash(p) == "benchmark/out" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path := "idlog"
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			path += "/" + dir
		}
		pkgNames[path] = f.Name.Name
		files = append(files, parsed{path, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range files {
		declared := map[*ast.Ident]bool{}
		scanned := strings.HasPrefix(pf.path, "idlog/internal/")
		add := func(pkg string, id *ast.Ident) {
			declared[id] = true
			if scanned && id.IsExported() {
				decls = append(decls, decl{pkg, id.Name, fset.Position(id.Pos())})
			}
		}
		for _, d := range pf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					add("", d.Name)
				} else {
					add(pf.path, d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(pf.path, s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(pf.path, n)
						}
					}
				}
			}
		}
		imports := map[string]string{}
		for _, im := range pf.file.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := ip[strings.LastIndex(ip, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				used[[2]string{"", n.Sel.Name}] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						used[[2]string{ip, n.Sel.Name}] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok {
					used[[2]string{"", k.Name}] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.Ident:
				if !declared[n] {
					used[[2]string{pf.path, n.Name}] = true
					used[[2]string{"", n.Name}] = true
				}
			}
			return true
		}
		ast.Inspect(pf.file, visit)
	}
	allowed := map[string]bool{}
	for _, d := range decls {
		if used[[2]string{d.pkg, d.name}] {
			continue
		}
		key := d.name
		if d.pkg != "" {
			key = pkgNames[d.pkg] + "." + d.name
		}
		if _, ok := testOnlyAllowed[key]; ok {
			allowed[key] = true
			continue
		}
		t.Errorf("%s: %s is exported but no non-test code names it", d.pos, key)
	}
	for key := range testOnlyAllowed {
		if !allowed[key] {
			t.Errorf("allowlist entry %s is stale: non-test code names it, or it is gone", key)
		}
	}
}
