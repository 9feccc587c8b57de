package buckets

import (
	"math"

	"sensornet/internal/mathx"
)

// MuCS returns μ'(K1, K2, s) from Appendix A: the probability that, when
// K1 type-A items (in-range senders) and K2 type-B items (senders in the
// carrier-sensing annulus) are dropped independently and uniformly into
// s buckets, at least one bucket holds exactly one type-A item and no
// type-B item. It is the exact inclusion–exclusion identity
//
//	μ'(K1,K2,s) = Σ_{t=1}^{min(K1,s)} (-1)^{t+1} C(s,t) · K1!/(K1-t)! · (s-t)^{K1+K2-t} / s^{K1+K2}.
//
// Values for K1 < 128, K2 < 256 and s <= 16 are computed once per
// process and then looked up.
func MuCS(k1, k2, s int) float64 {
	return csLattice.at(k1, k2, s)
}

// MuCSRecursive evaluates μ'(K1, K2, s) with the Appendix A recursion
// (Eq. A.1), conditioning on the first bucket's contents. It is the
// property-test oracle for MuCS and is only practical for small counts.
func MuCSRecursive(k1, k2, s int) float64 {
	memo := make(map[[3]int]float64)
	return muCSRec(k1, k2, s, memo)
}

func muCSRec(k1, k2, s int, memo map[[3]int]float64) float64 {
	if k1 <= 0 || k2 < 0 || s <= 0 {
		return 0
	}
	if k1 == 1 && k2 == 0 {
		return 1
	}
	if s == 1 {
		return 0 // all items share the single bucket; k1+k2 >= 2 here
	}
	key := [3]int{k1, k2, s}
	if v, ok := memo[key]; ok {
		return v
	}
	logInv := -math.Log(float64(s))
	logRest := math.Log(float64(s-1)) - math.Log(float64(s))
	sum := 0.0
	for i := 0; i <= k1; i++ {
		logA := mathx.LogBinomial(k1, i) + float64(i)*logInv + float64(k1-i)*logRest
		for j := 0; j <= k2; j++ {
			p := math.Exp(logA + mathx.LogBinomial(k2, j) + float64(j)*logInv +
				float64(k2-j)*logRest)
			if i == 1 && j == 0 {
				sum += p
			} else {
				sum += p * muCSRec(k1-i, k2-j, s-1, memo)
			}
		}
	}
	memo[key] = sum
	return sum
}

// MuCSReal evaluates μ' at real-valued expected counts using the chosen
// mode. KLinear bilinearly interpolates over the four surrounding
// integer grid points; KPoisson mixes over two independent Poisson
// counts; KRound rounds both arguments.
func MuCSReal(k1, k2 float64, s int, mode KMode) float64 {
	if k1 <= 0 || s <= 0 {
		return 0
	}
	if k2 < 0 {
		k2 = 0
	}
	switch mode {
	case KPoisson:
		return muCSPoisson(k1, k2, s)
	case KRound:
		return MuCS(int(math.Round(k1)), int(math.Round(k2)), s)
	default:
		f1, f2 := math.Floor(k1), math.Floor(k2)
		t1, t2 := k1-f1, k2-f2
		i1, i2 := int(f1), int(f2)
		v00 := MuCS(i1, i2, s)
		v10 := MuCS(i1+1, i2, s)
		v01 := MuCS(i1, i2+1, s)
		v11 := MuCS(i1+1, i2+1, s)
		return mathx.Lerp(mathx.Lerp(v00, v10, t1), mathx.Lerp(v01, v11, t1), t2)
	}
}

func muCSPoisson(l1, l2 float64, s int) float64 {
	lim1 := int(l1 + 12*math.Sqrt(l1) + 20)
	lim2 := int(l2 + 12*math.Sqrt(l2) + 20)
	sum := 0.0
	for a := 1; a <= lim1; a++ {
		pa := mathx.PoissonPMF(l1, a)
		if pa < poissonTailCut && a > int(l1) {
			break
		}
		inner := 0.0
		for b := 0; b <= lim2; b++ {
			pb := mathx.PoissonPMF(l2, b)
			inner += pb * MuCS(a, b, s)
			if pb < poissonTailCut && b > int(l2) {
				break
			}
		}
		sum += pa * inner
	}
	return mathx.Clamp(sum, 0, 1)
}
