package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
)

// CtxFlow enforces context propagation through the serving entry points:
// cancellation must flow from the caller down through exec.Config.Ctx, not
// be fabricated internally.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: `context must be accepted and threaded, never fabricated, in core/exec

In repro/internal/core and repro/internal/exec (non-test code):

  1. context.Background()/context.TODO() are forbidden — except in the
     nil-default idiom "if ctx == nil { ctx = context.Background() }",
     which tolerates a nil context from callers while guaranteeing a
     non-nil ctx downstream. Anything else needs //skewlint:allow ctxflow.
  2. A function taking a context.Context must take it as the first
     parameter (after the receiver).
  3. An exported function that blocks (contains a select statement or a
     channel operation) must have a context in reach: a context.Context
     parameter, or a parameter/receiver struct carrying one (the
     exec.Config.Ctx pattern). Termination-protocol methods (Close,
     Leave, Stop, Shutdown, Wait) are exempt: they block precisely to
     drain in-flight work that own contexts already bound.`,
	Run: runCtxFlow,
}

// ctxExemptNames are termination-protocol methods allowed to block without
// a context of their own.
var ctxExemptNames = map[string]bool{
	"Close":    true,
	"Leave":    true,
	"Stop":     true,
	"Shutdown": true,
	"Wait":     true,
}

func runCtxFlow(pass *analysis.Pass) error {
	if !ctxPaths[pass.Pkg.Path()] {
		return nil
	}
	info := pass.TypesInfo

	funcDecls(pass, func(fd *ast.FuncDecl, inTest bool) {
		if inTest {
			return
		}
		obj, _ := info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			return
		}
		sig := obj.Type().(*types.Signature)

		// Rule 2: ctx-first.
		params := sig.Params()
		for i := 0; i < params.Len(); i++ {
			if isContextType(params.At(i).Type()) && i != 0 {
				pass.Reportf(fd.Name.Pos(), "context.Context must be the first parameter of %s", fd.Name.Name)
			}
		}

		// Rule 1: no fabricated contexts outside the nil-default idiom.
		sanctioned := nilDefaultCalls(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if name := fn.Name(); (name == "Background" || name == "TODO") && !sanctioned[call] {
				pass.Reportf(call.Pos(), "context.%s fabricates a context: accept one from the caller and thread it (or default a nil ctx with the \"if ctx == nil\" idiom)", name)
			}
			return true
		})

		// Rule 3: exported blockers must have a context in reach.
		if !fd.Name.IsExported() || ctxExemptNames[fd.Name.Name] || hasContextAccess(sig) {
			return
		}
		if pos, blocks := firstBlockingOp(fd.Body); blocks {
			pass.Reportf(pos, "exported %s blocks (select/channel operation) without a reachable context: accept a ctx or carry one in a config struct", fd.Name.Name)
		}
	})
	return nil
}

// nilDefaultCalls collects context.Background()/TODO() calls that appear
// as `x = context.Background()` inside `if x == nil { ... }`.
func nilDefaultCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		cond, ok := ifs.Cond.(*ast.BinaryExpr)
		if !ok || cond.Op.String() != "==" || !isNilIdent(cond.Y) {
			return true
		}
		guarded, ok := cond.X.(*ast.Ident)
		if !ok {
			return true
		}
		for _, st := range ifs.Body.List {
			as, ok := st.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				continue
			}
			lhs, ok := as.Lhs[0].(*ast.Ident)
			if !ok || lhs.Name != guarded.Name {
				continue
			}
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				out[call] = true
			}
		}
		return true
	})
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// firstBlockingOp finds the first select statement or channel operation in
// the body (descending into function literals: a goroutine launched by an
// exported entry point still belongs to its blocking surface).
func firstBlockingOp(body *ast.BlockStmt) (pos token.Pos, found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.SelectStmt:
			pos, found = e.Pos(), true
		case *ast.SendStmt:
			pos, found = e.Pos(), true
		case *ast.UnaryExpr:
			if e.Op.String() == "<-" {
				pos, found = e.Pos(), true
			}
		}
		return !found
	})
	return pos, found
}
