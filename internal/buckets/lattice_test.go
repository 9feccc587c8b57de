package buckets

import (
	"math"
	"sync"
	"testing"
)

// checkLattice compares every entry of l, plus the first arguments past
// each of its bounds, with the exact kernel bit for bit. Each argument
// is looked up twice, so both the computing and the stored read are
// checked.
func checkLattice(t *testing.T, name string, l *lattice, lookup func(k1, k2, s int) float64) {
	t.Helper()
	maxS := len(l.slabs) - 1
	for s := 1; s <= maxS+1; s++ {
		for k1 := 0; k1 <= l.n1; k1++ {
			for k2 := 0; k2 <= l.n2; k2++ {
				if l.n2 == 1 && k2 > 0 {
					break // Mu has no K2 axis to step past
				}
				want := math.Float64bits(muExact(k1, k2, s))
				for pass := 0; pass < 2; pass++ {
					if got := math.Float64bits(lookup(k1, k2, s)); got != want {
						t.Fatalf("%s(%d, %d, s=%d) pass %d = %v, exact kernel %v", name, k1, k2, s,
							pass, math.Float64frombits(got), math.Float64frombits(want))
					}
				}
			}
		}
	}
}

// TestMuLatticeMatchesExactKernel pins every stored μ(K, s) to the exact
// inclusion–exclusion sum, and the fallback past K = 1023 and s = 32.
func TestMuLatticeMatchesExactKernel(t *testing.T) {
	checkLattice(t, "Mu", muLattice, func(k, _, s int) float64 { return Mu(k, s) })
}

// TestMuCSLatticeMatchesExactKernel pins every stored μ'(K1, K2, s), and
// the fallback past K1 = 127, K2 = 255 and s = 16.
func TestMuCSLatticeMatchesExactKernel(t *testing.T) {
	checkLattice(t, "MuCS", csLattice, MuCS)
}

// TestLatticeConcurrentFirstUse fills one slot count of a fresh lattice
// from several goroutines at once: under -race this checks the slab
// allocation and the entry stores, and every goroutine must read the
// exact kernel's bits.
func TestLatticeConcurrentFirstUse(t *testing.T) {
	l := newLattice(40, 12, 4)
	const s = 3
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Walk the lattice from a different corner per goroutine, so
			// they meet fresh entries from both sides.
			for i := 0; i < l.n1*l.n2; i++ {
				j := i
				if g%2 == 1 {
					j = l.n1*l.n2 - 1 - i
				}
				k1, k2 := j/l.n2, j%l.n2
				if got, want := l.at(k1, k2, s), muExact(k1, k2, s); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("goroutine %d: at(%d, %d, %d) = %v, want %v", g, k1, k2, s, got, want)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if l.slabs[s].Load() == nil {
		t.Fatal("no slab was published for the slot count in use")
	}
	for other := range l.slabs {
		if other != s && l.slabs[other].Load() != nil {
			t.Fatalf("slab %d allocated though only s = %d was looked up", other, s)
		}
	}
}
