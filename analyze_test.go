package sensornet_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzeOutputPinned pins cmd/analyze's printed report byte for
// byte: one analytic run and one probability sweep with its four
// optima, each under plain CAM and under carrier sensing. The sweep's
// optima lines are the only place the CLI prints core.OptimalProbability.
func TestAnalyzeOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/analyze")
	}
	bin := filepath.Join(t.TempDir(), "analyze")
	build := exec.Command("go", "build", "-o", bin, "./cmd/analyze")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/analyze: %v\n%s", err, out)
	}
	cases := []struct {
		args string
		sum  string
	}{
		{"-rho 100 -p 0.1", "625333ca600d3a03b586a4fc4269b1c7fb8d1880ae97c154fec12d1d0e98b087"},
		{"-rho 100 -p 0.1 -carrier", "7ec7cb5ac2709de40280be642011597b0526ac96ce32c69b629b9e53462855f3"},
		{"-sweep -step 0.05", "2bbea19a49bc587452361142c56c5e15888eb35711e9a302a236f8c3a2d86a7f"},
		{"-sweep -step 0.05 -carrier", "f8f44086d2bcaf8f898ccfac8aa88e407d0396390434f38f86bde029b3945b6a"},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		cmd := exec.Command(bin, strings.Fields(c.args)...)
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("analyze %s: %v\nstderr: %s", c.args, err, errb.String())
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != c.sum {
			t.Errorf("analyze %s: output sha256 %s, want %s\n%s", c.args, got, c.sum, out.String())
		}
	}
}
