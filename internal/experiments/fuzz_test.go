package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"sensornet/internal/optimize"
)

// FuzzDecodeCell feeds the cache codecs bytes as a disk cache might
// hold them, torn or corrupt included: decoding must never panic, and
// any value a codec accepts must re-encode, and that encoding must
// decode and re-encode to the same bytes (NaN metrics compare unequal
// as values, so the bytes are the comparison).
func FuzzDecodeCell(f *testing.F) {
	for _, v := range []any{
		schemeCell{Coverage: 0.93, ReachAtL: 0.71, Settle: 6.25, Broadcasts: 412.5,
			Delivered: 9120.75, LostColl: 311, SuccessRate: 0.42},
		degCell{Coverage: 0.5, ReachAtL: 0.25, Settle: 9, Broadcasts: 120,
			Delivered: 3000, LostColl: 44, LostFault: 12.5, Crashed: 3.25, Depleted: 0},
		collCell{ReachAtL: 0.6, Deliveries: 880, Collisions: 140.5, Rate: 0.137},
		pointCell{Runs: 30, ReachAtL: 0.634, Latency: 4.99, LatencyRuns: 27, Broadcasts: 93.5,
			BroadcastRuns: 27, ReachAtBudget: 0.555, SuccessRate: 0.21, Final: 0.81},
		ackCell{Slots: []float64{33, 54}, Txs: []float64{32, 53}, Frames: []float64{49, 42}},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	b, err := encodePoints([]optimize.Point{{P: 0.3, ReachAtL: 0.7, Latency: math.NaN(),
		Broadcasts: math.NaN(), ReachAtBudget: 0.4, Final: 0.9}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip(t, data, decodeCell[schemeCell], encodeCell[schemeCell])
		roundTrip(t, data, decodeCell[degCell], encodeCell[degCell])
		roundTrip(t, data, decodeCell[collCell], encodeCell[collCell])
		roundTrip(t, data, decodeCell[pointCell], encodeCell[pointCell])
		roundTrip(t, data, decodeCell[ackCell], encodeCell[ackCell])
		roundTrip(t, data, decodePoints, encodePoints)
	})
}

// roundTrip decodes data and, if that succeeds, checks the value
// re-encodes, and that the encoding survives a decode/encode round trip
// byte for byte.
func roundTrip(t *testing.T, data []byte, decode func([]byte) (any, error), encode func(any) ([]byte, error)) {
	v, err := decode(data)
	if err != nil {
		return
	}
	enc, err := encode(v)
	if err != nil {
		t.Fatalf("%T decoded from %q does not re-encode: %v", v, data, err)
	}
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("%T re-encoded as %s does not decode: %v", v, enc, err)
	}
	if enc2, err := encode(again); err != nil || !bytes.Equal(enc, enc2) {
		t.Fatalf("%T round trip changed %s into %s (err %v)", v, enc, enc2, err)
	}
}
