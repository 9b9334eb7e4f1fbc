package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// NoAlloc enforces the zero-allocation contract on annotated hot paths at
// lint time, construct by construct. The allocs/op assertions in skewbench
// -storagebench and testing.AllocsPerRun check the same contract at run
// time.
var NoAlloc = &analysis.Analyzer{
	Name: "noalloc",
	Doc: `flag allocating constructs in functions annotated //skewlint:noalloc

A function whose doc comment contains a //skewlint:noalloc line is a
per-tuple hot path (router DestinationsAt, comm-engine slab appends): its
body must not allocate at steady state. Function literals assigned to
mpc.SpanRoute.PerRow are implicitly annotated — the span contract runs
them once per row.

Flagged constructs: composite literals, make/new, closures, fmt calls,
string concatenation and string<->[]byte/[]rune conversions, implicit
conversions to interface parameters, and append whose destination does not
trace to a caller-provided buffer (a parameter, the receiver, or a chain
of locals rooted in one). Cold paths inside a hot function (lazy scratch
growth, error reporting) carry //skewlint:allow noalloc with a rationale.`,
	Run: runNoAlloc,
}

// noallocAnnotated reports whether a doc comment opts the function in.
func noallocAnnotated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, "//skewlint:noalloc") {
			return true
		}
	}
	return false
}

func runNoAlloc(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if noallocAnnotated(fd.Doc) {
				checkNoAlloc(pass, fd.Type, fd.Recv, fd.Body)
			}
			// Implicitly annotated regions: func literals assigned to the
			// PerRow field of an mpc.SpanRoute — the engine runs those once
			// per routed row.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != len(as.Rhs) {
					return true
				}
				for i, lhs := range as.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "PerRow" {
						continue
					}
					base := pass.TypesInfo.Types[sel.X].Type
					if base == nil || !namedFrom(base, "repro/internal/mpc", "SpanRoute") {
						continue
					}
					if fl, ok := as.Rhs[i].(*ast.FuncLit); ok {
						checkNoAlloc(pass, fl.Type, nil, fl.Body)
					}
				}
				return true
			})
		}
	}
	return nil
}

// checkNoAlloc walks one annotated function body and reports allocating
// constructs.
func checkNoAlloc(pass *analysis.Pass, ftype *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Caller-provided roots: parameters and the receiver.
	callerOwned := map[*types.Var]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					callerOwned[v] = true
				}
			}
		}
	}
	addFields(recv)
	addFields(ftype.Params)

	// Propagate ownership through simple local assignment chains:
	// d := &table[server] makes d caller-owned when table is. Iterate to a
	// fixed point (chains are short; the loop runs at most a handful of
	// times).
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				lv, _ := info.Defs[id].(*types.Var)
				if lv == nil {
					lv, _ = info.Uses[id].(*types.Var)
				}
				if lv == nil || callerOwned[lv] {
					continue
				}
				if rv := rootVar(info, as.Rhs[i]); rv != nil && callerOwned[rv] {
					callerOwned[lv] = true
					changed = true
				}
			}
			return true
		})
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(e.Pos(), "closure literal allocates in a //skewlint:noalloc function")
			return false // the literal runs later; judge only its creation here
		case *ast.CompositeLit:
			pass.Reportf(e.Pos(), "composite literal allocates in a //skewlint:noalloc function")
			return true
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := info.Types[ast.Expr(e)]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(e.Pos(), "string concatenation allocates in a //skewlint:noalloc function")
					}
				}
			}
			return true
		case *ast.CallExpr:
			checkNoAllocCall(pass, callerOwned, e)
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkNoAllocCall applies the call-site rules: builtins, fmt, string
// conversions, interface-parameter conversions, and append destinations.
func checkNoAllocCall(pass *analysis.Pass, callerOwned map[*types.Var]bool, call *ast.CallExpr) {
	info := pass.TypesInfo

	// Builtins and type conversions.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make allocates in a //skewlint:noalloc function")
			case "new":
				pass.Reportf(call.Pos(), "new allocates in a //skewlint:noalloc function")
			case "append":
				if len(call.Args) == 0 {
					return
				}
				root := rootVar(info, call.Args[0])
				if root == nil || !callerOwned[root] {
					pass.Reportf(call.Pos(), "append to a slice not rooted in a caller-provided buffer may allocate in a //skewlint:noalloc function")
				}
			}
			return
		}
	}

	// Conversions: string <-> []byte/[]rune copy, and conversions to
	// interface types box.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, info.Types[call.Args[0]].Type
		if to != nil && from != nil {
			if isStringByteConv(to, from) {
				pass.Reportf(call.Pos(), "string conversion copies in a //skewlint:noalloc function")
			}
			if types.IsInterface(to.Underlying()) && !types.IsInterface(from.Underlying()) {
				pass.Reportf(call.Pos(), "conversion to interface allocates in a //skewlint:noalloc function")
			}
		}
		return
	}

	fn := calleeFunc(info, call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates in a //skewlint:noalloc function", fn.Name())
		return
	}

	// Implicit interface conversions at call boundaries: a concrete
	// argument passed for an interface parameter escapes to the heap.
	sig := callSignature(info, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := info.Types[arg].Type
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "implicit conversion to interface parameter allocates in a //skewlint:noalloc function")
	}
}

// callSignature resolves the signature of a (non-builtin, non-conversion)
// call, through named function types and method values.
func callSignature(info *types.Info, call *ast.CallExpr) *types.Signature {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isStringByteConv reports a string <-> []byte/[]rune conversion.
func isStringByteConv(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(to) && isByteSlice(from)) || (isByteSlice(to) && isStr(from))
}
