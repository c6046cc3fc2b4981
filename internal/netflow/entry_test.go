package netflow

import (
	"math"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/flowtable"
)

// TestNetflowRecordSaturates: counters beyond the 32-bit v5 fields must
// clamp at the field maximum, not wrap around.
func TestNetflowRecordSaturates(t *testing.T) {
	e := flowtable.Entry{
		Key:     flow.Key{Src: flow.Addr{1, 2, 3, 4}},
		Packets: int64(math.MaxUint32) + 12345,
		Bytes:   1 << 40,
		First:   1.5,
		Last:    2.25,
	}
	r := SaturatingRecord(e)
	if r.Packets != math.MaxUint32 {
		t.Errorf("Packets = %d, want saturation at %d", r.Packets, uint32(math.MaxUint32))
	}
	if r.Octets != math.MaxUint32 {
		t.Errorf("Octets = %d, want saturation at %d", r.Octets, uint32(math.MaxUint32))
	}
	small := flowtable.Entry{Key: e.Key, Packets: 7, Bytes: 900, First: 1, Last: 2}
	rs := SaturatingRecord(small)
	if rs.Packets != 7 || rs.Octets != 900 || rs.FirstMillis != 1000 || rs.LastMillis != 2000 {
		t.Errorf("in-range record mangled: %+v", rs)
	}
	// Timestamps past the 32-bit millisecond range (~49.7 days) must clamp
	// too: an out-of-range float-to-uint32 conversion is undefined.
	far := flowtable.Entry{Key: e.Key, Packets: 1, Bytes: 1, First: 1e15, Last: 1e15}
	rf := SaturatingRecord(far)
	if rf.FirstMillis != math.MaxUint32 || rf.LastMillis != math.MaxUint32 {
		t.Errorf("far timestamps: First=%d Last=%d, want saturation", rf.FirstMillis, rf.LastMillis)
	}
	if got := SaturatingRecord(flowtable.Entry{Key: e.Key, First: -1, Last: -1}); got.FirstMillis != 0 {
		t.Errorf("negative timestamp: %d, want 0", got.FirstMillis)
	}
}

// TestSamplingIntervalClamps: rates below 1/16383 must clamp to the 14-bit
// maximum instead of overflowing uint16(1/rate).
func TestSamplingIntervalClamps(t *testing.T) {
	cases := []struct {
		rate float64
		want uint16
	}{
		{0.01, 100},
		{1.0 / 65536, MaxSamplingInterval}, // overflowed to 0 before
		{1e-9, MaxSamplingInterval},
		{1, 1},
		{0, 1},
		{0.3, 3},
	}
	for _, c := range cases {
		if got := IntervalForRate(c.rate); got != c.want {
			t.Errorf("IntervalForRate(%g) = %d, want %d", c.rate, got, c.want)
		}
	}
}
