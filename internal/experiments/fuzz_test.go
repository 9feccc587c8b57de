package experiments

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeCell feeds the cell codec bytes as a disk cache might hold
// them, torn or corrupt included: decoding must never panic, and any
// value it accepts must re-encode and decode to itself.
func FuzzDecodeCell(f *testing.F) {
	for _, v := range []any{
		schemeCell{Coverage: 0.93, ReachAtL: 0.71, Settle: 6.25, Broadcasts: 412.5,
			Delivered: 9120.75, LostColl: 311, SuccessRate: 0.42},
		degCell{Coverage: 0.5, ReachAtL: 0.25, Settle: 9, Broadcasts: 120,
			Delivered: 3000, LostColl: 44, LostFault: 12.5, Crashed: 3.25, Depleted: 0},
		collCell{ReachAtL: 0.6, Deliveries: 880, Collisions: 140.5, Rate: 0.137},
		pointCell{Runs: 30, ReachAtL: 0.634, Latency: 4.99, LatencyRuns: 27, Broadcasts: 93.5,
			BroadcastRuns: 27, ReachAtBudget: 0.555, SuccessRate: 0.21, Final: 0.81},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cellRoundTrip[schemeCell](t, data)
		cellRoundTrip[degCell](t, data)
		cellRoundTrip[collCell](t, data)
		cellRoundTrip[pointCell](t, data)
	})
}

// cellRoundTrip decodes data as a T and, if that succeeds, checks the
// value survives an encode/decode round trip unchanged.
func cellRoundTrip[T any](t *testing.T, data []byte) {
	v, err := decodeCell[T](data)
	if err != nil {
		return
	}
	enc, err := encodeCell[T](v)
	if err != nil {
		t.Fatalf("%T decoded from %q does not re-encode: %v", v, data, err)
	}
	again, err := decodeCell[T](enc)
	if err != nil {
		t.Fatalf("%T re-encoded as %s does not decode: %v", v, enc, err)
	}
	if !reflect.DeepEqual(v, again) {
		t.Fatalf("%T round trip changed %+v into %+v", v, v, again)
	}
}
