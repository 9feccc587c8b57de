package lint

import (
	"go/ast"
	"strings"
)

// CtxBg flags context.Background() / context.TODO() in internal
// packages. The engine's cancellation contract (SIGINT aborts a
// campaign mid-flight) only holds if contexts flow down from the
// caller, so library code must accept a ctx parameter. APIs are
// ctx-first: there is no exemption for a context-free wrapper around a
// …Ctx twin, because the repository keeps no such twins.
var CtxBg = &Analyzer{
	Name: "ctxbg",
	Doc:  "context.Background/TODO in internal code",
	Run:  runCtxBg,
}

func runCtxBg(p *Pass) {
	if !strings.HasPrefix(p.Rel(), "internal/") {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := p.IsPkgCall(call, "context", "Background", "TODO"); ok {
				p.Reportf(call.Pos(), "context.%s() in internal code: accept a ctx parameter so cancellation reaches this call", name)
			}
			return true
		})
	}
}
