package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// noCompiledMutation enforces the build-then-compile discipline: Compile
// snapshots the model, so builder mutations (Add*/Set* calls) on a model
// after it was handed to san.Compile in the same function silently diverge
// from the compiled snapshot.
func noCompiledMutation(p *Package, sanPath string) []Finding {
	var findings []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			findings = append(findings, mutationsAfterCompile(p, fd, sanPath)...)
		}
	}
	return findings
}

// mutationsAfterCompile flags builder calls on a model identifier after the
// position where that identifier was passed to Compile.
func mutationsAfterCompile(p *Package, fd *ast.FuncDecl, sanPath string) []Finding {
	compiledAt := map[types.Object]ast.Node{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		f := calleeFunc(p.Info, call)
		if f == nil || f.Pkg() == nil || f.Pkg().Path() != sanPath {
			return true
		}
		if f.Name() != "Compile" {
			return true
		}
		if id := rootIdent(call.Args[0]); id != nil {
			if obj := p.Info.ObjectOf(id); obj != nil {
				if _, seen := compiledAt[obj]; !seen {
					compiledAt[obj] = call
				}
			}
		}
		return true
	})
	if len(compiledAt) == 0 {
		return nil
	}
	var findings []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		if !strings.HasPrefix(name, "Add") && !strings.HasPrefix(name, "Set") {
			return true
		}
		id := rootIdent(sel.X)
		if id == nil {
			return true
		}
		obj := p.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		at, compiled := compiledAt[obj]
		if !compiled || call.Pos() <= at.Pos() {
			return true
		}
		findings = append(findings, Finding{
			Pos:     p.Fset.Position(call.Pos()),
			Rule:    "nocompiledmutation",
			Message: name + " on " + id.Name + " after it was compiled; Compile snapshots the model, so this mutation never reaches the compiled form",
		})
		return true
	})
	return findings
}
