package lint

import (
	"go/ast"
	"strings"
)

// nodetermAllowed lists the library packages that are allowed to touch
// wall-clock time and process environment: the engine owns job timing,
// and dist owns lease deadlines, worker liveness and its post-retry
// backoff. Everything else in internal/* must stay a pure function of
// its inputs, or the replay guarantee (same seed, same bytes, any
// worker count) dies. Determinism of results is unaffected by these
// clocks: job outputs are content addressed, so scheduling timing
// cannot change the bytes.
var nodetermAllowed = map[string]bool{
	"internal/engine": true,
	"internal/dist":   true,
}

// globalRandFns are the math/rand top-level functions that draw from
// the shared, implicitly-seeded global generator. Constructors
// (New, NewSource, NewZipf) are deterministic and excluded — they are
// seedderive's business instead.
var globalRandFns = []string{
	"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
	"Uint32", "Uint64", "Float32", "Float64",
	"ExpFloat64", "NormFloat64", "Perm", "Shuffle", "Seed", "Read",
}

// NoDeterm flags nondeterministic inputs — wall-clock reads, the global
// math/rand generator, and environment lookups — in library code.
// Binaries (cmd/, examples/) may read the clock and environment at the
// edge; libraries must have such values injected.
var NoDeterm = &Analyzer{
	Name: "nodeterm",
	Doc:  "wall-clock, global math/rand, and env reads in library code break replayability",
	Run:  runNoDeterm,
}

func runNoDeterm(p *Pass) {
	rel := p.Rel()
	if !(rel == "" || strings.HasPrefix(rel, "internal/")) || nodetermAllowed[rel] {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := p.IsPkgCall(call, "time", "Now", "Since", "Until"); ok {
				p.Reportf(call.Pos(), "time.%s in library code is nondeterministic; take the instant (or an engine-owned clock) as a parameter", fn)
			}
			if fn, ok := p.IsPkgCall(call, "os", "Getenv", "LookupEnv", "Environ"); ok {
				p.Reportf(call.Pos(), "os.%s in library code hides an input; plumb configuration through the caller", fn)
			}
			if fn, ok := p.IsPkgCall(call, "math/rand", globalRandFns...); ok {
				p.Reportf(call.Pos(), "rand.%s draws from the shared global generator; use an injected *rand.Rand seeded via engine.DeriveSeed", fn)
			}
			return true
		})
	}
}
