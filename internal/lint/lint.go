// Package lint implements sanlint, a stdlib-only static-analysis pass over
// this module that proves the determinism contract and model-construction
// invariants before anything runs. It parses and type-checks every non-test
// file with go/parser + go/types (stdlib source importer; no external
// dependencies) and applies six rule passes:
//
//   - nodeterminism: inside the deterministic package set, forbid wall-clock
//     reads (time.Now), the global math/rand generators, and map iteration in
//     unspecified order — unless the range is annotated //lint:sorted or uses
//     the collect-keys-then-sort idiom.
//   - floatorder: inside the deterministic package set, flag floating-point
//     accumulation (+=, x = x + e, Add of float-carrying values) inside map
//     or channel ranges, whose visit order is unspecified — float addition is
//     not associative, so such folds are order-sensitive bit-for-bit. The
//     index-order-reduction idiom (store to indexed slots, fold later in
//     index order) and //lint:sorted annotations are exempt.
//   - nocompiledmutation: flag builder mutations (Add*/Set* calls) on a model
//     after it was handed to san.Compile/CompileStrict in the same function,
//     and any use of the deprecated package-level san.NewSimulator outside
//     package san.
//   - optionshygiene: exported functions that read fields of a san.Options
//     parameter before calling its Validate or WithDefaults are flagged —
//     options must be normalized before they steer a study.
//   - errcheck: discarded error returns (bare call statements and blank
//     assignments) in non-test code.
//   - distliteral: outside the dist package itself, composite literals of
//     dist-defined types implementing dist.Distribution are flagged — they
//     bypass the New* constructors' validation, and static passes
//     (san.ExpandPhases, the lumpability predicates) reason about
//     distributions on the premise that their invariants hold.
//
// Findings carry positions and rule names; sanlint prints them and exits
// non-zero, which is how `make lint` gates CI.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Config selects the module to lint and the packages held to the
// determinism contract. It is explicit (rather than derived from go.mod) so
// the fixture module under testdata can exercise the same rules.
type Config struct {
	// Root is the module root directory.
	Root string
	// ModulePath is the module import path ("repro" for this repo).
	ModulePath string
	// DeterministicPkgs lists the import paths of packages whose outputs
	// must be byte-identical across runs; the nodeterminism pass applies
	// only to them.
	DeterministicPkgs []string
	// SANPath is the import path of the package defining Compile, Options,
	// and NewSimulator (the targets of the model-invariant rules).
	SANPath string
	// DistPath is the import path of the distribution package whose types
	// the distliteral rule protects; the rule is skipped when empty.
	DistPath string
}

// DefaultConfig returns the lint configuration for this repository rooted
// at root: the deterministic set is every package on the model-to-report
// path whose output the determinism contract covers.
func DefaultConfig(root string) Config {
	return Config{
		Root:       root,
		ModulePath: "repro",
		DeterministicPkgs: []string{
			"repro/internal/san",
			"repro/internal/statespace",
			"repro/internal/sweep",
			"repro/internal/rareevent",
			"repro/internal/calibrate",
			"repro/internal/dist",
			"repro/internal/phfit",
			"repro/internal/stats",
			"repro/internal/report",
			"repro/internal/abe",
			"repro/internal/raid",
			"repro/internal/cluster",
		},
		SANPath:  "repro/internal/san",
		DistPath: "repro/internal/dist",
	}
}

func (c Config) deterministic(pkgPath string) bool {
	for _, p := range c.DeterministicPkgs {
		if p == pkgPath {
			return true
		}
	}
	return false
}

// Finding is one rule violation at a position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the file:line:col: rule: message form the
// sanlint command prints.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// JSONFinding is the machine-readable form of a Finding (sanlint -json).
type JSONFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// RenderJSON renders the findings as an indented JSON array — always an
// array, `[]` when the module is clean — so CI can annotate PRs without
// parsing the text form.
func RenderJSON(findings []Finding) (string, error) {
	out := make([]JSONFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, JSONFinding{
			File: f.Pos.Filename, Line: f.Pos.Line, Column: f.Pos.Column,
			Rule: f.Rule, Message: f.Message,
		})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// Package is one loaded, type-checked package with everything a rule pass
// needs.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// sortedLines[filename] holds the lines carrying a //lint:sorted
	// annotation; a map range on line L is annotated if an entry exists at
	// L or L-1 (trailing comment or the line above).
	sortedLines map[string]map[int]bool
}

// loader resolves module-internal import paths by parsing and type-checking
// the package directory, and delegates everything else to the compiler's
// source importer — so the linter needs only the stdlib.
type loader struct {
	fset *token.FileSet
	cfg  Config
	std  types.Importer
	pkgs map[string]*Package
}

func newLoader(cfg Config) *loader {
	return &loader{
		fset: token.NewFileSet(),
		cfg:  cfg,
		std:  importer.ForCompiler(token.NewFileSet(), "source", nil),
		pkgs: map[string]*Package{},
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p.Types, nil
	}
	mod := l.cfg.ModulePath
	if path == mod || strings.HasPrefix(path, mod+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the non-test files of the package at the
// given module-internal import path.
func (l *loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.cfg.ModulePath), "/")
	dir := filepath.Join(l.cfg.Root, rel)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		Path:        path,
		Dir:         dir,
		Fset:        l.fset,
		Files:       files,
		Types:       tpkg,
		Info:        info,
		sortedLines: map[string]map[int]bool{},
	}
	for _, f := range files {
		fname := l.fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "lint:sorted") {
					if p.sortedLines[fname] == nil {
						p.sortedLines[fname] = map[int]bool{}
					}
					p.sortedLines[fname][l.fset.Position(c.Pos()).Line] = true
				}
			}
		}
	}
	l.pkgs[path] = p
	return p, nil
}

// sortedAnnotated reports whether the node's line carries (or follows) a
// //lint:sorted annotation.
func (p *Package) sortedAnnotated(pos token.Pos) bool {
	at := p.Fset.Position(pos)
	lines := p.sortedLines[at.Filename]
	return lines != nil && (lines[at.Line] || lines[at.Line-1])
}

// discoverPackages walks the module tree and returns the import path of
// every directory holding non-test Go files, skipping testdata, vendor, and
// hidden directories.
func discoverPackages(cfg Config) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(cfg.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != cfg.Root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(cfg.Root, dir)
		if err != nil {
			return err
		}
		imp := cfg.ModulePath
		if rel != "." {
			imp = cfg.ModulePath + "/" + filepath.ToSlash(rel)
		}
		for _, p := range paths {
			if p == imp {
				return nil
			}
		}
		paths = append(paths, imp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// Run lints every package of the configured module and returns the findings
// sorted by position. A type-check failure anywhere is an error: the linter
// refuses to certify a module it cannot fully analyze.
func Run(cfg Config) ([]Finding, error) {
	paths, err := discoverPackages(cfg)
	if err != nil {
		return nil, err
	}
	l := newLoader(cfg)
	var findings []Finding
	for _, path := range paths {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if cfg.deterministic(path) {
			findings = append(findings, noDeterminism(p)...)
			findings = append(findings, floatOrder(p)...)
		}
		findings = append(findings, noCompiledMutation(p, cfg.SANPath)...)
		findings = append(findings, optionsHygiene(p, cfg.SANPath)...)
		findings = append(findings, errCheck(p)...)
		findings = append(findings, distLiteral(p, cfg.DistPath)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}

// calleeFunc resolves the called function object of a call expression, or
// nil when it is not a direct (identifier or selector) call.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// rootIdent unwraps a selector chain (a.b.c) to its base identifier, or nil.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
