package flow

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAddrMask(t *testing.T) {
	a := Addr{10, 20, 30, 40}
	cases := []struct {
		bits int
		want Addr
	}{
		{32, Addr{10, 20, 30, 40}},
		{24, Addr{10, 20, 30, 0}},
		{16, Addr{10, 20, 0, 0}},
		{8, Addr{10, 0, 0, 0}},
		{0, Addr{}},
		{-4, Addr{}},
		{20, Addr{10, 20, 16, 0}}, // 30 = 0b00011110 -> 0b00010000
		{40, Addr{10, 20, 30, 40}},
	}
	for _, c := range cases {
		if got := a.Mask(c.bits); got != c.want {
			t.Errorf("Mask(%d) = %v, want %v", c.bits, got, c.want)
		}
	}
}

// TestKeyLayout pins what the packet path relies on: a Key is 16 bytes, so
// a copy is one load and one store, and the three bytes that make it so
// carry no identity — keys equal in the five fields are equal, collide as
// map keys and hash alike whatever memory they were copied from.
func TestKeyLayout(t *testing.T) {
	if got := unsafe.Sizeof(Key{}); got != 16 {
		t.Fatalf("sizeof(Key) = %d, want 16", got)
	}
	clean := Key{
		Src: Addr{10, 0, 0, 1}, Dst: Addr{192, 168, 7, 9},
		SrcPort: 40000, DstPort: 443, Proto: ProtoTCP,
	}
	// The same five fields written over memory whose every byte was set.
	raw := [2]uint64{^uint64(0), ^uint64(0)}
	dirty := (*Key)(unsafe.Pointer(&raw))
	dirty.Src, dirty.Dst = clean.Src, clean.Dst
	dirty.SrcPort, dirty.DstPort, dirty.Proto = clean.SrcPort, clean.DstPort, clean.Proto
	if pad := (*[16]byte)(unsafe.Pointer(&raw))[13:]; pad[0] != 0xff || pad[1] != 0xff || pad[2] != 0xff {
		t.Fatalf("field stores reached the padding: % x", pad)
	}
	copied := *dirty // a whole-key copy carries the padding along
	for _, k := range []Key{*dirty, copied} {
		if k != clean {
			t.Errorf("key over dirty memory != the same key over zeroed memory")
		}
		if k.FastHash() != clean.FastHash() {
			t.Errorf("FastHash differs with the padding: %#x vs %#x", k.FastHash(), clean.FastHash())
		}
		m := map[Key]int{clean: 1}
		m[k]++
		if len(m) != 1 || m[clean] != 2 {
			t.Errorf("map holds %d keys, count %d: the padding took part in map identity", len(m), m[clean])
		}
		if k.String() != clean.String() {
			t.Errorf("String() = %q, want %q", k.String(), clean.String())
		}
	}
	// The zero Key stays a valid key: what prefix aggregation collapses the
	// unused fields to, equal however it was produced.
	var zero Key
	if got := (DstPrefix{Bits: 0}).Aggregate(clean); got != zero || got.FastHash() != zero.FastHash() {
		t.Errorf("DstPrefix{0}.Aggregate = %v, want the zero key", got)
	}
	if m := map[Key]bool{zero: true}; !m[Key{}] {
		t.Error("zero key not found under Key{}")
	}
}

func TestKeyString(t *testing.T) {
	k := Key{
		Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 2},
		SrcPort: 4444, DstPort: 443, Proto: ProtoTCP,
	}
	want := "tcp 10.0.0.1:4444 > 10.0.0.2:443"
	if k.String() != want {
		t.Errorf("String() = %q, want %q", k.String(), want)
	}
}

func TestProtoString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" || ProtoICMP.String() != "icmp" {
		t.Error("wrong well-known protocol names")
	}
	if Proto(250).String() != "proto-250" {
		t.Errorf("unknown proto = %q", Proto(250).String())
	}
}

func TestFastHashSpreads(t *testing.T) {
	// Keys differing in one field must almost never collide.
	base := Key{Src: Addr{10, 0, 0, 1}, Dst: Addr{10, 0, 0, 2}, SrcPort: 1, DstPort: 2, Proto: ProtoTCP}
	seen := map[uint64]bool{}
	collisions := 0
	for port := 0; port < 20000; port++ {
		k := base
		k.SrcPort = uint16(port)
		h := k.FastHash()
		if seen[h] {
			collisions++
		}
		seen[h] = true
	}
	if collisions > 0 {
		t.Errorf("%d hash collisions over 20000 single-field variations", collisions)
	}
}

func TestFastHashDeterministic(t *testing.T) {
	f := func(src, dst [4]byte, sp, dp uint16, proto uint8) bool {
		k := Key{Src: src, Dst: dst, SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		return k.FastHash() == k.FastHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregators(t *testing.T) {
	k := Key{
		Src: Addr{1, 2, 3, 4}, Dst: Addr{10, 20, 30, 40},
		SrcPort: 5555, DstPort: 80, Proto: ProtoTCP,
	}
	if got := (FiveTuple{}).Aggregate(k); got != k {
		t.Errorf("FiveTuple changed the key: %v", got)
	}
	got := (DstPrefix{Bits: 24}).Aggregate(k)
	want := Key{Dst: Addr{10, 20, 30, 0}}
	if got != want {
		t.Errorf("DstPrefix(24) = %v, want %v", got, want)
	}
	// Two flows to the same /24 collapse to the same key.
	k2 := k
	k2.Dst = Addr{10, 20, 30, 77}
	k2.SrcPort = 1111
	if (DstPrefix{Bits: 24}).Aggregate(k) != (DstPrefix{Bits: 24}).Aggregate(k2) {
		t.Error("same /24 must aggregate to the same key")
	}
	if (FiveTuple{}).String() != "5-tuple" {
		t.Error("FiveTuple label")
	}
	if (DstPrefix{Bits: 24}).String() != "/24 dst prefix" {
		t.Error("DstPrefix label")
	}
}

func TestRecordValidate(t *testing.T) {
	good := Record{Start: 1, Duration: 2, Packets: 3, Bytes: 1500}
	if err := good.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if good.End() != 3 {
		t.Errorf("End() = %g", good.End())
	}
	bad := []Record{
		{Start: 1, Duration: 2, Packets: 0},
		{Start: 1, Duration: -1, Packets: 3},
		{Start: -1, Duration: 1, Packets: 3},
		{Start: 1, Duration: 1, Packets: 3, Bytes: -5},
		{Start: math.NaN(), Duration: 1, Packets: 3},
		{Start: math.Inf(1), Duration: 1, Packets: 3},
		{Start: math.Inf(-1), Duration: 1, Packets: 3},
		{Start: 1, Duration: math.NaN(), Packets: 3},
		{Start: 1, Duration: math.Inf(1), Packets: 3},
		{Start: math.MaxFloat64, Duration: math.MaxFloat64, Packets: 3},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
