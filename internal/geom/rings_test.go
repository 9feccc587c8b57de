package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRingAreaValues(t *testing.T) {
	rp := RingPartition{R: 1, P: 5}
	// C_j = pi (2j - 1) for r = 1.
	for j := 1; j <= 5; j++ {
		want := math.Pi * float64(2*j-1)
		if got := rp.RingArea(j); !almostEqual(got, want, 1e-12) {
			t.Errorf("RingArea(%d) = %v, want %v", j, got, want)
		}
	}
	if rp.RingArea(0) != 0 || rp.RingArea(6) != 0 {
		t.Fatal("out-of-range rings should have zero area")
	}
}

func TestRingAreasSumToField(t *testing.T) {
	rp := RingPartition{R: 2.5, P: 7}
	sum := 0.0
	for j := 1; j <= rp.P; j++ {
		sum += rp.RingArea(j)
	}
	if !almostEqual(sum, rp.FieldArea(), 1e-9) {
		t.Fatalf("ring areas sum to %v, field area %v", sum, rp.FieldArea())
	}
}

func TestFieldRadius(t *testing.T) {
	rp := RingPartition{R: 3, P: 5}
	if rp.FieldRadius() != 15 {
		t.Fatalf("FieldRadius = %v, want 15", rp.FieldRadius())
	}
}

func TestRingOf(t *testing.T) {
	rp := RingPartition{R: 1, P: 5}
	cases := []struct {
		d    float64
		want int
	}{
		{0, 1}, {0.5, 1}, {0.999, 1}, {1, 2}, {2.5, 3}, {4.999, 5},
		{5, 5}, {7, 5}, {-0.5, 1},
	}
	for _, c := range cases {
		if got := rp.RingOf(c.d); got != c.want {
			t.Errorf("RingOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestTransmissionAreasPartitionProperty(t *testing.T) {
	rp := RingPartition{R: 1, P: 5}
	f := func(jRaw, xRaw uint16) bool {
		j := int(jRaw)%rp.P + 1
		x := float64(xRaw%1001) / 1000 // x in [0, 1] = [0, r]
		a := rp.TransmissionAreas(j, x)
		sum := a[0] + a[1] + a[2]
		if !almostEqual(sum, DiskArea(rp.R), 1e-9) {
			return false
		}
		return a[0] >= 0 && a[1] >= 0 && a[2] >= 0
	}
	if err := quick.Check(f, quickConfig(500)); err != nil {
		t.Fatal(err)
	}
}

func TestTransmissionAreasInnerRing(t *testing.T) {
	rp := RingPartition{R: 1, P: 5}
	// Node at the exact centre: whole disk lies inside ring 1.
	a := rp.TransmissionAreas(1, 0)
	if a[0] != 0 {
		t.Fatalf("ring-0 share should be 0, got %v", a[0])
	}
	if !almostEqual(a[1], math.Pi, 1e-9) {
		t.Fatalf("ring-1 share = %v, want pi", a[1])
	}
	if !almostEqual(a[2], 0, 1e-9) {
		t.Fatalf("ring-2 share = %v, want 0", a[2])
	}
}

func TestTransmissionAreasMonteCarlo(t *testing.T) {
	// Verify the three ring shares against direct area sampling for a
	// node in ring 3 at x = 0.4.
	rp := RingPartition{R: 1, P: 5}
	j, x := 3, 0.4
	want := rp.TransmissionAreas(j, x)
	d := rp.R*float64(j-1) + x // distance of the node from the origin
	rng := rand.New(rand.NewSource(11))
	const samples = 500000
	var hits [3]int
	for i := 0; i < samples; i++ {
		// Uniform point in the node's transmission disk.
		px := (rng.Float64()*2 - 1) * rp.R
		py := (rng.Float64()*2 - 1) * rp.R
		if px*px+py*py > rp.R*rp.R {
			i--
			continue
		}
		rho := math.Hypot(d+px, py)
		switch k := rp.RingOf(rho); {
		case k == j-1 && rho < rp.R*float64(j-1):
			hits[0]++
		case rho >= rp.R*float64(j-1) && rho < rp.R*float64(j):
			hits[1]++
		default:
			hits[2]++
		}
	}
	disk := DiskArea(rp.R)
	for i := range hits {
		got := float64(hits[i]) / samples * disk
		if !almostEqual(got, want[i], 0.03) {
			t.Errorf("share %d: Monte Carlo %v vs analytic %v", i, got, want[i])
		}
	}
}

func TestCarrierSenseAreasPartitionProperty(t *testing.T) {
	rp := RingPartition{R: 1, P: 6}
	f := func(jRaw, xRaw uint16) bool {
		j := int(jRaw)%rp.P + 1
		x := float64(xRaw%1001) / 1000
		b := rp.CarrierSenseAreas(j, x)
		sum := 0.0
		for _, v := range b {
			if v < 0 {
				return false
			}
			sum += v
		}
		// The sensing annulus between r and 2r has area 3 pi r².
		return almostEqual(sum, 3*math.Pi*rp.R*rp.R, 1e-8)
	}
	if err := quick.Check(f, quickConfig(500)); err != nil {
		t.Fatal(err)
	}
}

func TestCarrierSenseAreasCentreNode(t *testing.T) {
	rp := RingPartition{R: 1, P: 5}
	b := rp.CarrierSenseAreas(1, 0)
	// From the centre, the annulus [r, 2r] covers exactly ring 2.
	if !almostEqual(b[3], 3*math.Pi, 1e-9) {
		t.Fatalf("ring j+1 share = %v, want 3pi", b[3])
	}
	for i, v := range b {
		if i != 3 && !almostEqual(v, 0, 1e-9) {
			t.Errorf("share %d = %v, want 0", i, v)
		}
	}
}

func TestCarrierSenseAreasMonteCarlo(t *testing.T) {
	rp := RingPartition{R: 1, P: 6}
	j, x := 4, 0.7
	want := rp.CarrierSenseAreas(j, x)
	d := rp.R*float64(j-1) + x
	rng := rand.New(rand.NewSource(13))
	const samples = 600000
	var hits [5]int
	count := 0
	for count < samples {
		px := (rng.Float64()*2 - 1) * 2 * rp.R
		py := (rng.Float64()*2 - 1) * 2 * rp.R
		rr := px*px + py*py
		if rr > 4*rp.R*rp.R || rr <= rp.R*rp.R {
			continue // keep only points in the sensing annulus
		}
		count++
		rho := math.Hypot(d+px, py)
		ring := int(rho/rp.R) + 1 // 1-indexed ring, unclamped
		idx := ring - (j - 2)
		if idx < 0 {
			idx = 0
		}
		if idx > 4 {
			idx = 4
		}
		hits[idx]++
	}
	annulus := 3 * math.Pi * rp.R * rp.R
	for i := range hits {
		got := float64(hits[i]) / samples * annulus
		if !almostEqual(got, want[i], 0.05) {
			t.Errorf("annulus share %d: Monte Carlo %v vs analytic %v", i, got, want[i])
		}
	}
}

func BenchmarkTransmissionAreas(b *testing.B) {
	rp := RingPartition{R: 1, P: 5}
	for i := 0; i < b.N; i++ {
		rp.TransmissionAreas(1+i%5, float64(i%100)/100)
	}
}

func BenchmarkCarrierSenseAreas(b *testing.B) {
	rp := RingPartition{R: 1, P: 5}
	for i := 0; i < b.N; i++ {
		rp.CarrierSenseAreas(1+i%5, float64(i%100)/100)
	}
}
