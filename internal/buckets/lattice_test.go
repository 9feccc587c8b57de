package buckets

import (
	"math"
	"sync"
	"testing"

	"sensornet/internal/mathx"
)

// TestMuRowsMatchExactKernel pins every entry of every dense μ row to the
// exact inclusion–exclusion sum bit for bit, and Mu's fallback at the
// first K past a row and the first s past the rows. Each argument is
// looked up twice, so the read that fills a row and the read of a
// published row are both checked.
func TestMuRowsMatchExactKernel(t *testing.T) {
	for s := 1; s <= len(muRowTable); s++ {
		row := MuRow(s)
		switch {
		case s < len(muRowTable) && len(row) != muRowLen:
			t.Fatalf("MuRow(%d) has %d entries, want %d", s, len(row), muRowLen)
		case s == len(muRowTable) && row != nil:
			t.Fatalf("MuRow(%d) = %d entries past the last row", s, len(row))
		}
		for k := -1; k <= muRowLen; k++ {
			want := math.Float64bits(muExact(k, 0, s))
			for pass := 0; pass < 2; pass++ {
				if got := math.Float64bits(Mu(k, s)); got != want {
					t.Fatalf("Mu(%d, %d) pass %d = %v, exact kernel %v", k, s, pass,
						math.Float64frombits(got), math.Float64frombits(want))
				}
			}
			if k >= 0 && k < len(row) && math.Float64bits(row[k]) != want {
				t.Fatalf("MuRow(%d)[%d] = %v, exact kernel %v", s, k, row[k], math.Float64frombits(want))
			}
		}
	}
}

// muLinearRef is MuReal's KLinear branch as it reads without rows: the
// floor and its successor from the exact kernel, and the lower one
// alone at an integer.
func muLinearRef(k float64, s int) float64 {
	if k <= 0 || s <= 0 {
		return 0
	}
	lo := math.Floor(k)
	t := k - lo
	if t <= 0 {
		return muExact(int(lo), 0, s)
	}
	return mathx.Lerp(muExact(int(lo), 0, s), muExact(int(lo)+1, 0, s), t)
}

// TestLerpRowMatchesExactInterpolation holds MuReal's KLinear branch,
// which interpolates in a dense row, to the interpolation of the exact
// kernel bit for bit: at every integer of the row, where it must return
// the entry itself, between them, at the row's end where the lookup
// misses, and on either side of a row.
func TestLerpRowMatchesExactInterpolation(t *testing.T) {
	fracs := []float64{0, 1e-12, 0.25, 0.5, 0.9999999}
	for _, s := range []int{1, 2, 3, 12, 32, 33} {
		for k := -1; k <= muRowLen+1; k++ {
			for _, f := range fracs {
				x := float64(k) + f
				want := math.Float64bits(muLinearRef(x, s))
				if got := math.Float64bits(MuReal(x, s, KLinear)); got != want {
					t.Fatalf("MuReal(%v, %d, KLinear) = %v, exact interpolation %v", x, s,
						math.Float64frombits(got), math.Float64frombits(want))
				}
				v, ok := LerpRow(MuRow(s), x)
				if ok && math.Float64bits(v) != want {
					t.Fatalf("LerpRow(MuRow(%d), %v) = %v, exact interpolation %v", s, x, v,
						math.Float64frombits(want))
				}
				if hit := x <= 0 || (s < len(muRowTable) && x < muRowLen-1); ok != hit {
					t.Fatalf("LerpRow(MuRow(%d), %v) hit = %v, want %v", s, x, ok, hit)
				}
			}
		}
	}
	if _, ok := LerpRow(MuRow(3), math.NaN()); ok {
		t.Fatal("LerpRow read a NaN count off the row")
	}
}

// TestMuCSLatticeMatchesExactKernel pins every stored μ'(K1, K2, s), and
// the fallback past K1 = 127, K2 = 255 and s = 16. Each argument is
// looked up twice, so both the computing and the stored read are
// checked.
func TestMuCSLatticeMatchesExactKernel(t *testing.T) {
	l := csLattice
	for s := 1; s <= len(l.slabs); s++ {
		for k1 := 0; k1 <= l.n1; k1++ {
			for k2 := 0; k2 <= l.n2; k2++ {
				want := math.Float64bits(muExact(k1, k2, s))
				for pass := 0; pass < 2; pass++ {
					if got := math.Float64bits(MuCS(k1, k2, s)); got != want {
						t.Fatalf("MuCS(%d, %d, s=%d) pass %d = %v, exact kernel %v", k1, k2, s,
							pass, math.Float64frombits(got), math.Float64frombits(want))
					}
				}
			}
		}
	}
}

// TestMuRowConcurrentFirstUse looks one slot count up in a fresh row
// table from several goroutines at once: under -race this checks the
// fill and its publication, and every goroutine must get the one
// published row, complete and equal to the exact kernel.
func TestMuRowConcurrentFirstUse(t *testing.T) {
	var rows muRows
	const s = 7
	start := make(chan struct{})
	got := make([][]float64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = rows.row(s)
		}(g)
	}
	close(start)
	wg.Wait()
	published := rows[s].Load()
	if published == nil {
		t.Fatal("no row was published for the slot count in use")
	}
	for g, row := range got {
		if &row[0] != &published[0] {
			t.Fatalf("goroutine %d read a row other than the published one", g)
		}
	}
	for k, v := range published {
		if math.Float64bits(v) != math.Float64bits(muExact(k, 0, s)) {
			t.Fatalf("published row[%d] = %v, exact kernel %v", k, v, muExact(k, 0, s))
		}
	}
	for other := range rows {
		if other != s && rows[other].Load() != nil {
			t.Fatalf("row %d published though only s = %d was looked up", other, s)
		}
	}
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
