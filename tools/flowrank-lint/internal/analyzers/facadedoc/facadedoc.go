// Package facadedoc enforces the facade contract of the root flowrank
// package: every exported symbol must carry a doc comment, and must be
// used from at least one _test.go file in the package directory. The
// facade is the repository's public API — the conformance tests
// (flowrank_test.go, source_facade_test.go, ...) are what pin each
// re-export to its internal implementation, so an unreferenced symbol is
// an untested API surface and an undocumented one is unusable.
//
// A blank use — `_ = X`, `var _ T`, `var _ T = X` — is not a reference:
// it compiles whether or not anything exercises X, so a test file listing
// the surface that way would satisfy the check without testing anything.
package facadedoc

import (
	"go/ast"
	"go/token"

	"flowrank-lint/internal/analysis"
)

// Analyzer is the facadedoc check.
var Analyzer = &analysis.Analyzer{
	Name: "facadedoc",
	Doc: "require a doc comment and at least one _test.go reference for every exported " +
		"symbol of the root flowrank facade package",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Only the facade package itself; internal packages document their own
	// APIs under the ordinary go vet / staticcheck conventions.
	if pass.Pkg.Name() != "flowrank" {
		return nil
	}

	type symbol struct {
		kind string
		pos  token.Pos
		doc  bool
	}
	symbols := map[string]symbol{}
	add := func(name *ast.Ident, kind string, doc *ast.CommentGroup) {
		if !name.IsExported() {
			return
		}
		symbols[name.Name] = symbol{kind: kind, pos: name.Pos(), doc: doc != nil}
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, "function", d.Doc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					// A group doc comment (`// Errors returned by ...` above a
					// var block) counts for each spec without its own doc.
					switch s := spec.(type) {
					case *ast.TypeSpec:
						doc := s.Doc
						if doc == nil {
							doc = d.Doc
						}
						add(s.Name, "type", doc)
					case *ast.ValueSpec:
						doc := s.Doc
						if doc == nil {
							doc = d.Doc
						}
						kind := "var"
						if d.Tok == token.CONST {
							kind = "const"
						}
						for _, name := range s.Names {
							add(name, kind, doc)
						}
					}
				}
			}
		}
	}

	// One syntactic scan of the directory's _test.go files: any identifier
	// occurrence outside a blank use counts as a reference, whether used
	// as flowrank.X from an external test package or bare X from an
	// in-package test.
	referenced := map[string]bool{}
	for _, f := range pass.TestFiles {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				return !allBlank(n.Lhs)
			case *ast.ValueSpec:
				return !allBlank(n.Names)
			case *ast.Ident:
				referenced[n.Name] = true
			}
			return true
		})
	}

	for name, sym := range symbols {
		if !sym.doc {
			pass.Reportf(sym.pos, "exported %s %s of the flowrank facade has no doc comment", sym.kind, name)
		}
		if !referenced[name] {
			pass.Reportf(sym.pos, "exported %s %s of the flowrank facade is not referenced from any _test.go file", sym.kind, name)
		}
	}
	return nil
}

// allBlank reports whether every target of an assignment or value spec is
// the blank identifier — a use that discards what it names.
func allBlank[E ast.Expr](targets []E) bool {
	for _, t := range targets {
		if id, ok := ast.Expr(t).(*ast.Ident); !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
