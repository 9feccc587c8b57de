// Package ctxbg is lint testdata: context.Background/TODO in internal
// code. Every call is flagged, a context-free wrapper around a …Ctx
// twin included: APIs are ctx-first.
package ctxbg

import "context"

type runner struct{}

func (runner) SweepCtx(ctx context.Context, n int) error     { return ctx.Err() }
func (runner) SweepContext(ctx context.Context, n int) error { return ctx.Err() }

// Sweep is a context-free wrapper around its Ctx twin: flagged.
func (r runner) Sweep(n int) error {
	return r.SweepCtx(context.Background(), n)
}

// sweep wraps the Context-suffixed twin, lower-cased: flagged.
func sweep(r runner, n int) error {
	return r.SweepContext(context.Background(), n)
}

// Orphan builds a context out of thin air mid-library: flagged.
func Orphan(r runner, n int) error {
	ctx := context.Background() // want: ctxbg
	return r.SweepCtx(ctx, n)
}

// Todo is no better: flagged.
func Todo(r runner, n int) error {
	return r.SweepCtx(context.TODO(), n)
}

// Mismatch delegates to something that is not its own Ctx twin:
// flagged.
func Mismatch(r runner, n int) error {
	return r.SweepCtx(context.Background(), n)
}
