// Package flow defines flow identity: the classic 5-tuple key, destination
// prefix aggregation (the paper's /24 flow definition), and the flow-level
// trace records the generators and simulators exchange.
//
// Keys are small comparable value types backed by fixed-size arrays, in the
// style of gopacket's Endpoint/Flow: they can be used directly as map keys
// without allocation, and FastHash provides a cheap non-cryptographic hash
// for sharding.
package flow

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Proto is an IP protocol number.
type Proto uint8

// Common IP protocol numbers.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String returns the conventional protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto-%d", uint8(p))
	}
}

// Addr is an IPv4 address as a comparable 4-byte array.
type Addr [4]byte

// String returns the dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Mask returns the address with only the leading bits kept. The address
// is masked as one 32-bit word: assembled byte by byte in an array it
// would be reloaded whole right after the byte stores, a load the store
// buffer cannot forward.
func (a Addr) Mask(bits int) Addr {
	if bits >= 32 {
		return a
	}
	if bits <= 0 {
		return Addr{}
	}
	v := binary.BigEndian.Uint32(a[:]) &^ (1<<(32-bits) - 1)
	return Addr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Key is the classic 5-tuple flow identity. The zero Key is valid (it is
// what prefix aggregation collapses unused fields to).
//
// A Key is 16 bytes: the five fields take 13, and the blank tail pads them
// to the one size the compiler copies with a single load and a single
// store. Every packet's key is copied half a dozen times between the
// decoder and a flow table, mostly through the stack (a struct holding
// arrays is never passed in registers). At its natural 14 bytes a copy
// compiled to two overlapping 8-byte moves (bytes 0-7 and 6-13), so a key
// a callee had just written that way — Aggregate's result, an argument —
// was reloaded with a load spanning two stores still in the store buffer:
// such a load cannot be forwarded and waits for both to retire. That stall
// was a quarter of Engine.Feed. The padding takes part in nothing: ==, map
// identity and FastHash see only the five fields, whatever bytes a copy
// carried along, and the trace formats write 13 bytes (internal/packet).
// Because of the blank field, unkeyed Key{...} literals are not supported.
type Key struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            Proto
	_                [3]byte
}

// String renders "tcp 10.0.0.1:1234 > 10.0.0.2:80".
func (k Key) String() string {
	return fmt.Sprintf("%s %s:%d > %s:%d", k.Proto, k.Src, k.SrcPort, k.Dst, k.DstPort)
}

// FastHash returns a cheap, well-mixed 64-bit hash of the key, suitable for
// sharding flows across workers. It is not stable across releases.
func (k Key) FastHash() uint64 {
	h := uint64(k.Src[0])<<56 | uint64(k.Src[1])<<48 | uint64(k.Src[2])<<40 | uint64(k.Src[3])<<32 |
		uint64(k.Dst[0])<<24 | uint64(k.Dst[1])<<16 | uint64(k.Dst[2])<<8 | uint64(k.Dst[3])
	h2 := uint64(k.SrcPort)<<24 | uint64(k.DstPort)<<8 | uint64(k.Proto)
	return mix64(h ^ mix64(h2))
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Aggregator maps a packet's 5-tuple onto the flow identity being ranked.
// The paper evaluates two definitions: the 5-tuple itself and the /24
// destination address prefix.
type Aggregator interface {
	Aggregate(Key) Key
	String() string
}

// FiveTuple is the identity aggregation: flows are 5-tuples.
type FiveTuple struct{}

// Aggregate returns k unchanged.
func (FiveTuple) Aggregate(k Key) Key { return k }

func (FiveTuple) String() string { return "5-tuple" }

// DstPrefix aggregates packets by the leading Bits of the destination
// address, discarding the rest of the 5-tuple — the paper's "/24
// destination prefix" flow definition with Bits = 24.
type DstPrefix struct {
	Bits int
}

// Aggregate returns a key carrying only the masked destination.
func (d DstPrefix) Aggregate(k Key) Key {
	return Key{Dst: k.Dst.Mask(d.Bits)}
}

func (d DstPrefix) String() string { return fmt.Sprintf("/%d dst prefix", d.Bits) }

// Record is a flow-level trace record: everything the trace-driven
// experiments need to reconstruct packet-level behaviour the way the paper
// does (§8.1: packets placed uniformly over the flow's lifetime).
type Record struct {
	Key Key
	// Start is the flow arrival time in seconds from trace start.
	Start float64
	// Duration is the flow lifetime in seconds.
	Duration float64
	// Packets is the flow size in packets (>= 1).
	Packets int
	// Bytes is the flow size in bytes.
	Bytes int64
}

// End returns the flow's finish time.
func (r Record) End() float64 { return r.Start + r.Duration }

// Validate performs basic sanity checks. Start, Duration and End must be
// finite: a packet placed in a flow's lifetime needs a time it can be
// ordered and written by.
func (r Record) Validate() error {
	switch {
	case math.IsNaN(r.Start) || math.IsInf(r.Start, 0):
		return fmt.Errorf("flow: non-finite start %g", r.Start)
	case math.IsNaN(r.Duration) || math.IsInf(r.Duration, 0):
		return fmt.Errorf("flow: non-finite duration %g", r.Duration)
	case math.IsInf(r.End(), 0):
		return fmt.Errorf("flow: end %g + %g overflows", r.Start, r.Duration)
	case r.Packets < 1:
		return fmt.Errorf("flow: record with %d packets", r.Packets)
	case r.Duration < 0:
		return fmt.Errorf("flow: negative duration %g", r.Duration)
	case r.Start < 0:
		return fmt.Errorf("flow: negative start %g", r.Start)
	case r.Bytes < 0:
		return fmt.Errorf("flow: negative byte count %d", r.Bytes)
	}
	return nil
}
