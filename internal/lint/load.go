package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one module package, parsed and type-checked.
type Package struct {
	Path string // full import path
	Dir  string // absolute directory
	// Files are the non-test sources, type-checked.
	Files []*ast.File
	// TestFiles are _test.go sources, parsed with comments but not
	// type-checked (external test packages would need a second checker
	// pass for little analytical value here).
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info

	imports []string // module-internal import paths, for topo-sort
}

// Module is a fully loaded module: every package in topological
// (dependencies-first) order, sharing one FileSet.
type Module struct {
	Root string // absolute module root directory
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package

	graph *CallGraph // built on first use; see callGraph
}

// LoadModule discovers, parses, and type-checks every package under root.
// Standard-library imports are type-checked from source (importer "source"),
// so the loader needs no pre-built export data and no external tooling.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	mod := &Module{Root: root, Path: modPath, Fset: fset}

	dirs, err := goSourceDirs(root)
	if err != nil {
		return nil, err
	}
	byPath := map[string]*Package{}
	for _, dir := range dirs {
		pkg, err := parseDir(fset, root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			byPath[pkg.Path] = pkg
			mod.Pkgs = append(mod.Pkgs, pkg)
		}
	}
	if err := topoSort(mod, byPath); err != nil {
		return nil, err
	}

	std := importer.ForCompiler(fset, "source", nil)
	imp := &moduleImporter{std: std, mod: map[string]*types.Package{}}
	for _, pkg := range mod.Pkgs {
		if err := typeCheck(fset, pkg, imp); err != nil {
			return nil, err
		}
		imp.mod[pkg.Path] = pkg.Types
	}
	return mod, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// goSourceDirs returns every directory under root that contains .go files,
// skipping VCS internals, testdata, vendor, and hidden/underscore dirs.
func goSourceDirs(root string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			dir := filepath.Dir(path)
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

// parseDir parses one directory into a Package (nil if it has no non-test
// and no test Go files after filtering).
func parseDir(fset *token.FileSet, root, modPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Path: path, Dir: dir}
	importSet := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
			continue
		}
		pkg.Files = append(pkg.Files, f)
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == modPath || strings.HasPrefix(p, modPath+"/") {
				importSet[p] = true
			}
		}
	}
	if len(pkg.Files) == 0 && len(pkg.TestFiles) == 0 {
		return nil, nil
	}
	for p := range importSet {
		pkg.imports = append(pkg.imports, p)
	}
	sort.Strings(pkg.imports)
	return pkg, nil
}

// topoSort orders mod.Pkgs dependencies-first and rejects import cycles.
func topoSort(mod *Module, byPath map[string]*Package) error {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var order []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.Path] {
		case visiting:
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		case done:
			return nil
		}
		state[p.Path] = visiting
		for _, dep := range p.imports {
			if d, ok := byPath[dep]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[p.Path] = done
		order = append(order, p)
		return nil
	}
	for _, p := range mod.Pkgs {
		if err := visit(p); err != nil {
			return err
		}
	}
	mod.Pkgs = order
	return nil
}

// moduleImporter resolves module-internal imports from already-checked
// packages and everything else (the standard library) from source.
type moduleImporter struct {
	std types.Importer
	mod map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// typeCheck runs the go/types checker over one package's non-test files.
func typeCheck(fset *token.FileSet, pkg *Package, imp types.Importer) error {
	if len(pkg.Files) == 0 {
		// Test-only directory: nothing to type-check.
		pkg.Info = &types.Info{}
		return nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, _ := conf.Check(pkg.Path, fset, pkg.Files, info)
	if len(errs) > 0 {
		max := len(errs)
		if max > 5 {
			max = 5
		}
		msgs := make([]string, 0, max)
		for _, e := range errs[:max] {
			msgs = append(msgs, e.Error())
		}
		return fmt.Errorf("lint: type-checking %s failed:\n  %s", pkg.Path, strings.Join(msgs, "\n  "))
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}
