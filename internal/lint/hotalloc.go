package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/tibfit/tibfit/internal/lint/analysis"
)

// registersHandlerFact marks a function that takes an event handler and
// schedules it for kernel dispatch — Kernel.At, Kernel.After, and any
// wrapper with a parameter of a named function type called Handler.
// Function literals passed to such a function run on the simulator's
// hot dispatch path, so they inherit hotness across package boundaries.
type registersHandlerFact struct{}

func (*registersHandlerFact) AFact() {}

// HotAlloc flags per-event allocation in hot paths: functions annotated
// //hot:path, their same-package static callees, and handlers passed to
// kernel dispatch registration (found via registersHandler facts).
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid per-event heap allocation in //hot:path functions and kernel dispatch handlers\n\n" +
		"The allocation diet keeps the event loop at a fixed allocs/op budget;\n" +
		"one innocent &T{} or fmt.Sprintf inside a handler undoes it at every\n" +
		"event. Hot code is: any function annotated //hot:path, every\n" +
		"same-package function it statically calls, and function literals\n" +
		"registered with a kernel dispatch function (identified by a\n" +
		"registersHandler fact exported from the package that declares the\n" +
		"Handler type). Propagation stops at functions annotated //hot:init:\n" +
		"lazily-called one-time setup whose allocations are not per-event.\n" +
		"Inside hot code the analyzer flags heap-escaping\n" +
		"composite literals, map and channel allocation, append to a local\n" +
		"slice made without capacity (locals aliasing a field or parameter,\n" +
		"x := s.buf[:0] or p := &s.scratch, are scratch), boxing into\n" +
		"...interface{}, method values\n" +
		"used outside call position, and any fmt call. Deliberate one-time\n" +
		"allocations take //lint:allow hotalloc.",
	FactTypes: []analysis.Fact{(*registersHandlerFact)(nil)},
	Run:       runHotAlloc,
}

// hotPathDirective is the annotation that marks a function as being on
// the event-dispatch hot path.
const hotPathDirective = "//hot:path"

// hotInitDirective marks a function that hot code calls lazily but that
// runs a bounded number of times (first-use initialization). Hotness
// does not propagate into it, so its one-time allocations need no
// allows.
const hotInitDirective = "//hot:init"

func runHotAlloc(pass *analysis.Pass) (interface{}, error) {
	// Export registersHandler facts for functions with a parameter of a
	// named function type called Handler declared in this package, so
	// downstream packages recognize dispatch registration.
	registrars := map[*types.Func]bool{}
	for _, name := range pass.Pkg.Scope().Names() {
		switch obj := pass.Pkg.Scope().Lookup(name).(type) {
		case *types.Func:
			if takesHandlerParam(obj, pass.Pkg) {
				registrars[obj] = true
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); takesHandlerParam(m, pass.Pkg) {
					registrars[m] = true
				}
			}
		}
	}
	exported := make([]*types.Func, 0, len(registrars))
	for fn := range registrars {
		exported = append(exported, fn)
	}
	sort.Slice(exported, func(i, j int) bool { return exported[i].Pos() < exported[j].Pos() })
	for _, fn := range exported {
		pass.ExportObjectFact(fn, &registersHandlerFact{})
	}

	isRegistrar := func(fn *types.Func) bool {
		if registrars[fn] {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
			var fact registersHandlerFact
			return pass.ImportObjectFact(fn, &fact)
		}
		return false
	}

	// Gather the package's function declarations, the //hot:path roots
	// among them, and the static call edges between them.
	decls := map[*types.Func]*ast.FuncDecl{}
	hot := map[*types.Func]string{} // hot function -> why
	var hotOrder []*types.Func
	markHot := func(fn *types.Func, why string) {
		if fn == nil {
			return
		}
		if _, ok := hot[fn]; !ok {
			hot[fn] = why
			hotOrder = append(hotOrder, fn)
		}
	}
	type edge struct{ caller, callee *types.Func }
	var edges []edge
	// hotLits are function literals registered as dispatch handlers,
	// checked directly since literals cannot carry annotations.
	type hotLit struct {
		lit *ast.FuncLit
		why string
	}
	var hotLits []hotLit

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			decls[fn] = fd
			if hasDirective(fd, hotPathDirective) {
				markHot(fn, "annotated "+hotPathDirective)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := staticCallee(pass.TypesInfo, call); callee != nil {
					edges = append(edges, edge{caller: fn, callee: callee})
					if isRegistrar(callee) {
						for _, arg := range call.Args {
							switch a := ast.Unparen(arg).(type) {
							case *ast.FuncLit:
								hotLits = append(hotLits, hotLit{lit: a, why: "handler registered with " + funcDisplayName(callee)})
							case *ast.Ident, *ast.SelectorExpr:
								if h := staticFuncValue(pass.TypesInfo, a); h != nil && h.Pkg() == pass.Pkg {
									markHot(h, "handler registered with "+funcDisplayName(callee))
								}
							}
						}
					}
				}
				return true
			})
		}
	}

	// Intra-package propagation: hot functions make their same-package
	// static callees hot, to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if _, callerHot := hot[e.caller]; !callerHot {
				continue
			}
			if _, calleeHot := hot[e.callee]; calleeHot {
				continue
			}
			if e.callee.Pkg() != pass.Pkg {
				continue
			}
			if fd, hasBody := decls[e.callee]; !hasBody || hasDirective(fd, hotInitDirective) {
				continue
			}
			markHot(e.callee, "called from hot "+e.caller.Name())
			changed = true
		}
	}

	checked := map[ast.Node]bool{}
	for _, fn := range hotOrder {
		fd := decls[fn]
		if fd == nil || checked[fd.Body] {
			continue
		}
		checked[fd.Body] = true
		checkHotBody(pass, fd.Body, fn.Name(), hot[fn])
	}
	for _, hl := range hotLits {
		if checked[hl.lit.Body] {
			continue
		}
		checked[hl.lit.Body] = true
		checkHotBody(pass, hl.lit.Body, "handler literal", hl.why)
	}
	return nil, nil
}

// takesHandlerParam reports whether fn has a parameter whose type is a
// named function type called Handler declared in pkg.
func takesHandlerParam(fn *types.Func, pkg *types.Package) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		named, ok := sig.Params().At(i).Type().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() != "Handler" || obj.Pkg() != pkg {
			continue
		}
		if _, isFunc := named.Underlying().(*types.Signature); isFunc {
			return true
		}
	}
	return false
}

// hasDirective reports whether the declaration's doc comment carries
// the given directive line.
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// staticFuncValue resolves an expression used as a function value to
// the declared function it denotes, or nil.
func staticFuncValue(info *types.Info, expr ast.Expr) *types.Func {
	var id *ast.Ident
	switch v := expr.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// checkHotBody reports per-event allocation constructs inside one hot
// function body.
func checkHotBody(pass *analysis.Pass, body *ast.BlockStmt, name, why string) {
	// Local slices made with an explicit capacity, and locals that alias
	// storage the function does not own locally (the scratch-buffer
	// idioms x := s.buf[:0] and p := &s.scratch), are the sanctioned
	// append targets; collect them first, in source order, so an alias of
	// an alias counts too.
	withCap := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if !madeWithCap(pass.TypesInfo, rhs) && !aliasesScratch(pass.TypesInfo, rhs, body, withCap) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := objectOf(pass.TypesInfo, id); obj != nil {
					withCap[obj] = true
				}
			}
		}
		return true
	})

	reported := map[ast.Node]bool{}
	// called holds the selectors in call position, which Inspect visits
	// after their CallExpr: x.m() binds nothing, x.m alone does.
	called := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SelectorExpr:
			if sel := pass.TypesInfo.Selections[v]; sel != nil && sel.Kind() == types.MethodVal && !called[v] {
				pass.Reportf(v.Pos(),
					"method value %s.%s allocates a bound closure in hot path %s (%s); bind it once outside the per-event path",
					types.ExprString(v.X), v.Sel.Name, name, why)
			}
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return true
			}
			if lit, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
				reported[lit] = true
				pass.Reportf(v.Pos(),
					"&%s composite literal escapes to the heap in hot path %s (%s); reuse a pooled or preallocated value",
					typeLabel(pass.TypesInfo, lit), name, why)
			}
		case *ast.CompositeLit:
			if reported[v] {
				return true
			}
			switch pass.TypesInfo.TypeOf(v).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(v.Pos(),
					"slice literal allocates in hot path %s (%s); preallocate outside the dispatch loop", name, why)
			case *types.Map:
				pass.Reportf(v.Pos(),
					"map literal allocates in hot path %s (%s); preallocate outside the dispatch loop", name, why)
			}
		case *ast.CallExpr:
			called[ast.Unparen(v.Fun)] = true
			switch {
			case isBuiltinMake(pass.TypesInfo, v):
				switch pass.TypesInfo.TypeOf(v).Underlying().(type) {
				case *types.Map:
					pass.Reportf(v.Pos(),
						"make(map) allocates in hot path %s (%s); hoist the map out of the per-event path", name, why)
				case *types.Chan:
					pass.Reportf(v.Pos(),
						"make(chan) allocates in hot path %s (%s); hoist the channel out of the per-event path", name, why)
				}
			case isBuiltinAppend(pass.TypesInfo, v):
				if len(v.Args) == 0 {
					return true
				}
				id := rootIdent(v.Args[0])
				if id == nil {
					return true
				}
				obj := objectOf(pass.TypesInfo, id)
				if obj == nil || withCap[obj] || !declaredInside(obj, body) {
					// Fields, parameters, and capacity-sized locals follow
					// the scratch-buffer idiom; only bare locals grow.
					return true
				}
				pass.Reportf(v.Pos(),
					"append to %s may reallocate per event in hot path %s (%s); make it with capacity or reuse a scratch buffer",
					id.Name, name, why)
			default:
				if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok && pkgQualifier(pass.TypesInfo, sel) == "fmt" {
					pass.Reportf(v.Pos(),
						"fmt.%s allocates and boxes its arguments in hot path %s (%s); format outside the dispatch loop",
						sel.Sel.Name, name, why)
					return true
				}
				if boxesIntoEmptyInterface(pass.TypesInfo, v) {
					pass.Reportf(v.Pos(),
						"arguments box into ...interface{} in hot path %s (%s); avoid variadic interface calls per event", name, why)
				}
			}
		}
		return true
	})
}

// madeWithCap reports whether e is a make call with an explicit capacity.
func madeWithCap(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok && isBuiltinMake(info, call) && len(call.Args) >= 3
}

// aliasesScratch reports whether e reslices or takes the address of
// storage the function does not own locally: a field or a parameter, or a
// local already known to alias one. It matches s.buf[:0] (directly or as
// append's first argument) and &s.scratch.
func aliasesScratch(info *types.Info, e ast.Expr, body *ast.BlockStmt, scratch map[types.Object]bool) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok && isBuiltinAppend(info, call) && len(call.Args) > 0 {
		e = ast.Unparen(call.Args[0])
	}
	switch v := e.(type) {
	case *ast.SliceExpr:
		e = v.X
	case *ast.UnaryExpr:
		if v.Op != token.AND {
			return false
		}
		e = v.X
	default:
		return false
	}
	obj := objectOf(info, rootIdent(e))
	return obj != nil && (!declaredInside(obj, body) || scratch[obj])
}

// typeLabel renders a composite literal's type for a diagnostic.
func typeLabel(info *types.Info, lit *ast.CompositeLit) string {
	if t := info.TypeOf(lit); t != nil {
		return types.TypeString(t, func(p *types.Package) string { return p.Name() })
	}
	return "T"
}

// isBuiltinMake reports whether call invokes the make builtin.
func isBuiltinMake(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "make"
}

// boxesIntoEmptyInterface reports whether the call passes concrete
// arguments into a ...interface{} parameter.
func boxesIntoEmptyInterface(info *types.Info, call *ast.CallExpr) bool {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis.IsValid() {
		return false
	}
	last := sig.Params().At(sig.Params().Len() - 1)
	slice, ok := last.Type().(*types.Slice)
	if !ok {
		return false
	}
	iface, ok := slice.Elem().Underlying().(*types.Interface)
	if !ok || !iface.Empty() {
		return false
	}
	fixed := sig.Params().Len() - 1
	for i := fixed; i < len(call.Args); i++ {
		if t := info.TypeOf(call.Args[i]); t != nil {
			if _, isIface := t.Underlying().(*types.Interface); !isIface {
				return true
			}
		}
	}
	return false
}
