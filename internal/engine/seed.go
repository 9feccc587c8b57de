package engine

import (
	"fmt"
	"hash/fnv"
	"strconv"
)

// splitmix64 is the finaliser of the SplitMix64 generator: a cheap,
// well-mixed bijection on 64-bit words. Nearby inputs (base, base+1)
// land on unrelated outputs, which is exactly the property the ad-hoc
// `seed*7919+int64(rho)` derivations lacked: affine maps of nearby
// seeds collide across nearby parameter values.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashParts folds the formatted parts into one 64-bit FNV-1a digest,
// separating fields so ("ab","c") and ("a","bc") differ.
func hashParts(parts []any) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x1f", p)
	}
	return h.Sum64()
}

// DeriveSeed derives a deterministic, collision-resistant child seed
// from a base seed and a sequence of labelling parts (experiment name,
// density, replication index, ...). The same inputs always yield the
// same seed; any change to base or parts yields an unrelated one. The
// result is non-negative so it can feed APIs that reserve negative
// seeds.
func DeriveSeed(base int64, parts ...any) int64 {
	x := splitmix64(splitmix64(uint64(base)) ^ hashParts(parts))
	return int64(x &^ (1 << 63))
}

// Fingerprint builds a stable, collision-free cache key from the
// formatted parts. The full formatted content is retained (the cache
// layer hashes it for addressing), so two distinct configurations can
// never alias one cache entry.
func Fingerprint(parts ...any) string {
	out := make([]byte, 0, 64)
	for i, p := range parts {
		if i > 0 {
			out = append(out, '\x1f')
		}
		out = appendPart(out, p)
	}
	return string(out)
}

// appendPart appends p formatted as fmt's %v. Keys are built from
// strings, ints, int64s, float64s and bools, and those take strconv's
// path, which writes the same bytes without fmt's reflection: %v of a
// float64 is strconv's 'g' at precision -1, specials included. Any
// other type, a named type with a String method among them, goes
// through fmt.
func appendPart(out []byte, p any) []byte {
	switch v := p.(type) {
	case string:
		return append(out, v...)
	case int:
		return strconv.AppendInt(out, int64(v), 10)
	case int64:
		return strconv.AppendInt(out, v, 10)
	case float64:
		return strconv.AppendFloat(out, v, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(out, v)
	}
	return fmt.Appendf(out, "%v", p)
}
