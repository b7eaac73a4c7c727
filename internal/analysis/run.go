package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked package plus everything a Pass
// needs.
type Package struct {
	// Path is the package's import path ("repro/internal/rpc").
	Path string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's facts about Files.
	Info *types.Info
}

// listedPackage is the part of a `go list -json` record Load reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load asks the go tool, run in dir, for the packages matching patterns
// and returns them parsed and type-checked. The go tool selects each
// package's files — build constraints applied, _test.go files left out,
// so the invariants bind production code only — and compiles every
// dependency; the matched packages are type-checked against that export
// data. Any go list, parse or type error fails the load.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.Bytes())
	}

	var matched []listedPackage
	var errs []error
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		if p.Error != nil {
			errs = append(errs, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err))
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly {
			matched = append(matched, p)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	pkgs := make([]*Package, 0, len(matched))
	for _, p := range matched {
		pkg := &Package{Path: p.ImportPath, Fset: fset}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		pkg.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: imp}
		if pkg.Types, err = conf.Check(p.ImportPath, fset, pkg.Files, pkg.Info); err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Finding is one diagnostic with its position resolved.
type Finding struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos is where the invariant is violated.
	Pos token.Position
	// Message states the violated invariant.
	Message string
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings ordered by file position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Fset:  pkg.Fset,
				Files: pkg.Files,
				Pkg:   pkg.Types,
				Info:  pkg.Info,
				Report: func(d Diagnostic) {
					findings = append(findings, Finding{Analyzer: a.Name, Pos: pkg.Fset.Position(d.Pos), Message: d.Message})
				},
			})
		}
	}
	sort.SliceStable(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return findings
}
