package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// loadTestPkg loads one testdata package under a pretend root-relative
// path, so allowlists behave as they would in the real tree.
func loadTestPkg(t *testing.T, name, rel string) *Package {
	t.Helper()
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDirAs(filepath.Join("testdata", "src", name), rel)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// checkGolden compares findings (with file paths relative to the
// testdata package dir) against testdata/golden/<name>.txt. Run
// `go test ./internal/lint -update` to regenerate after intentional
// analyzer changes.
func checkGolden(t *testing.T, name string, findings []Finding) {
	t.Helper()
	var b strings.Builder
	for _, f := range RelativeTo(findings, filepath.Join("testdata", "src", name)) {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	got := b.String()
	golden := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// one runs a single analyzer over one testdata package, asserting the
// positive cases actually fire: a golden file full of findings proves
// the check catches the bug class it exists for.
func one(t *testing.T, a *Analyzer, name, rel string) {
	t.Helper()
	pkg := loadTestPkg(t, name, rel)
	findings := Lint([]*Package{pkg}, []*Analyzer{a}, false)
	if len(findings) == 0 {
		t.Fatalf("%s found nothing in testdata/src/%s; the analyzer is a no-op", a.Name, name)
	}
	checkGolden(t, name, findings)
}

// none asserts an allowlisted package produces zero findings.
func none(t *testing.T, a *Analyzer, name, rel string) {
	t.Helper()
	pkg := loadTestPkg(t, name, rel)
	if findings := Lint([]*Package{pkg}, []*Analyzer{a}, false); len(findings) != 0 {
		t.Fatalf("%s must be silent for %s loaded as %q, got:\n%v", a.Name, name, rel, findings)
	}
}

func TestSeedDerive(t *testing.T)       { one(t, SeedDerive, "seedderive", "internal/experiments") }
func TestSeedDeriveEngine(t *testing.T) { none(t, SeedDerive, "seedderive_engine", "internal/engine") }

// The faults package mints per-stream seeds with engine.DeriveSeed; the
// analyzer recognises the idiom without suppressions or a package
// exemption.
func TestSeedDeriveFaults(t *testing.T) { none(t, SeedDerive, "seedderive_faults", "internal/faults") }

// The interprocedural cases: helpers proven safe through their call
// sites, arithmetic hiding behind one call, escapes and local flow.
func TestSeedDeriveInterproc(t *testing.T) {
	one(t, SeedDerive, "seedderive_interproc", "internal/experiments")
}

func TestCachePut(t *testing.T) { one(t, CachePut, "cacheput", "internal/dist") }

// internal/engine owns the cache layout, so the same writes there are
// sanctioned.
func TestCachePutEngineExempt(t *testing.T) { none(t, CachePut, "cacheput", "internal/engine") }

func TestErrDrop(t *testing.T)     { one(t, ErrDrop, "errdrop", "internal/dist") }
func TestLockHeld(t *testing.T)    { one(t, LockHeld, "lockheld", "internal/dist") }
func TestLeakyTicker(t *testing.T) { one(t, LeakyTicker, "leakyticker", "internal/dist") }

func TestNoDeterm(t *testing.T) { one(t, NoDeterm, "nodeterm", "internal/protocol") }

// internal/trace records channel events and reads no clock, so it gets
// no exemption.
func TestNoDetermTrace(t *testing.T) { one(t, NoDeterm, "nodeterm_trace", "internal/trace") }

// nodeterm only polices library code: the same violations in a binary
// package are the binary's business.
func TestNoDetermCmdExempt(t *testing.T) { none(t, NoDeterm, "nodeterm", "cmd/experiments") }

func TestCtxBg(t *testing.T) { one(t, CtxBg, "ctxbg", "internal/sim") }

// ctxbg is scoped to internal/*: root-package and cmd code may build
// root contexts.
func TestCtxBgRootExempt(t *testing.T) { none(t, CtxBg, "ctxbg", "cmd/experiments") }

func TestFloatEq(t *testing.T)      { one(t, FloatEq, "floateq", "internal/metrics") }
func TestFloatEqMathx(t *testing.T) { none(t, FloatEq, "floateq_mathx", "internal/mathx") }

func TestBareGoroutine(t *testing.T) { one(t, BareGoroutine, "baregoroutine", "internal/sim") }
func TestBareGoroutineEngine(t *testing.T) {
	none(t, BareGoroutine, "baregoroutine", "internal/engine")
}
func TestBareGoroutineCmd(t *testing.T) { none(t, BareGoroutine, "baregoroutine_cmd", "cmd/tool") }

// httpserver applies everywhere — the real servers live in cmd, so the
// binary package gets no exemption.
func TestHTTPServer(t *testing.T)   { one(t, HTTPServer, "httpserver", "cmd/experiments") }
func TestHTTPServerOK(t *testing.T) { none(t, HTTPServer, "httpserver_ok", "cmd/experiments") }

// TestLoaderEdgeCases pins three loader contracts at once: generic
// code type-checks and lints without crashing, //go:build-tagged files
// are parsed and linted rather than silently skipped, and _test.go
// files stay excluded. The golden holds exactly the tagged file's
// nodeterm finding — nothing from generics.go, nothing from the
// deliberately dirty excluded_test.go.
func TestLoaderEdgeCases(t *testing.T) {
	pkg := loadTestPkg(t, "loader_edge", "internal/loaderedge")
	if got := len(pkg.Files); got != 2 {
		t.Fatalf("loaded %d files, want 2 (generics.go + tagged.go; excluded_test.go must stay out)", got)
	}
	checkGolden(t, "loader_edge", Lint([]*Package{pkg}, Analyzers(), true))
}

// TestSuppressDirectives runs the full check set with unused-directive
// reporting on, exercising both directive placements, the malformed
// forms, and staleness.
func TestSuppressDirectives(t *testing.T) {
	pkg := loadTestPkg(t, "suppress", "internal/experiments")
	checkGolden(t, "suppress", Lint([]*Package{pkg}, Analyzers(), true))
}
