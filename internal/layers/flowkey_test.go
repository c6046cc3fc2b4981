package layers

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"flowrank/internal/flow"
)

// checksum16 is Checksum as RFC 1071 states it, one 16-bit word at a time.
func checksum16(data []byte) uint16 {
	var sum uint32
	for len(data) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(data[:2]))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint32(data[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TestChecksumMatchesWordLoop: the 8-bytes-at-a-time sum is the 16-bit
// loop's on every length a header can have and past it, odd ones included,
// on random bytes and on the two all-equal fills where the one's-complement
// zeros (0x0000, 0xffff) are decided.
func TestChecksumMatchesWordLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 200; trial++ {
			data := make([]byte, n)
			switch trial {
			case 0: // all zero
			case 1:
				for i := range data {
					data[i] = 0xff
				}
			default:
				rng.Read(data)
			}
			if got, want := Checksum(data), checksum16(data); got != want {
				t.Fatalf("length %d, % x: checksum 0x%04x, word loop 0x%04x", n, data, got, want)
			}
		}
	}
}

// diffFlowKey requires FlowKey and the struct decoders to agree on a
// frame: the same error, without one the same key, and with one the zero
// key (the reference leaves the addresses in a key it returns beside an L4
// error; nobody reads that one).
func diffFlowKey(t *testing.T, frame []byte) (flow.Key, error) {
	t.Helper()
	var ref Parser
	want, _, werr := ref.Parse(frame)
	got, gerr := FlowKey(frame)
	if gerr != werr {
		t.Fatalf("% x: FlowKey error %v, struct decoders %v", frame, gerr, werr)
	}
	if gerr != nil {
		want = flow.Key{}
	}
	if got != want {
		t.Fatalf("% x: FlowKey %v, want %v", frame, got, want)
	}
	return got, gerr
}

// fragment turns a Frame into one fragment of a larger datagram — offset
// in 8-byte units, MF set or not — and repairs the header checksum.
func fragment(frame []byte, offset uint16, more bool) []byte {
	out := append([]byte(nil), frame...)
	ip := out[EthernetHeaderLen:]
	v := offset
	if more {
		v |= 1 << 13
	}
	binary.BigEndian.PutUint16(ip[6:8], v)
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint16(ip[10:12], Checksum(ip[:IPv4MinHeaderLen]))
	return out
}

// TestFlowKeyFragments: only a datagram's first fragment has an L4 header.
// Every later one is keyed by address pair and protocol with ports zero,
// whatever its payload looks like — before, payload bytes were read as
// ports, or the frame was dropped as malformed when they did not parse.
func TestFlowKeyFragments(t *testing.T) {
	for _, proto := range []flow.Proto{flow.ProtoTCP, flow.ProtoUDP} {
		key := testKey()
		key.Proto = proto
		frame, err := Frame(nil, key, 64, 7)
		if err != nil {
			t.Fatal(err)
		}
		portless := key
		portless.SrcPort, portless.DstPort = 0, 0

		if got, err := diffFlowKey(t, fragment(frame, 0, true)); err != nil || got != key {
			t.Errorf("%v first fragment (offset 0, MF): %v, %v, want %v", proto, got, err, key)
		}
		for _, more := range []bool{true, false} {
			later := fragment(frame, 185, more)
			if got, err := diffFlowKey(t, later); err != nil || got != portless {
				t.Errorf("%v fragment at offset 185 (MF %v): %v, %v, want %v", proto, more, got, err, portless)
			}
			// A zero payload does not parse as an L4 header (data offset 0,
			// UDP length 0): the fragment must be keyed all the same.
			l4 := later[EthernetHeaderLen+IPv4MinHeaderLen:]
			for i := range l4 {
				l4[i] = 0
			}
			if got, err := diffFlowKey(t, later); err != nil || got != portless {
				t.Errorf("%v zero-payload fragment (MF %v): %v, %v, want %v", proto, more, got, err, portless)
			}
			// Nor need there be room for one.
			short := later[:EthernetHeaderLen+IPv4MinHeaderLen+3]
			if got, err := diffFlowKey(t, short); err != nil || got != portless {
				t.Errorf("%v 3-byte fragment (MF %v): %v, %v, want %v", proto, more, got, err, portless)
			}
		}
	}
}

// TestFlowKeyErrors walks one frame through every check, in the order
// they are made.
func TestFlowKeyErrors(t *testing.T) {
	frame, err := Frame(nil, testKey(), 40, 0)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), frame...)) }
	ipOff, l4Off := EthernetHeaderLen, EthernetHeaderLen+IPv4MinHeaderLen
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"short ethernet", frame[:13], ErrTruncated},
		{"arp", mutate(func(b []byte) []byte { b[12], b[13] = 0x08, 0x06; return b }), ErrNotIPv4},
		{"short ip", frame[:ipOff+19], ErrTruncated},
		{"version 6", mutate(func(b []byte) []byte { b[ipOff] = 0x65; return b }), ErrNotIPv4},
		{"ihl 4", mutate(func(b []byte) []byte { b[ipOff] = 0x44; return b }), ErrBadHeader},
		{"ihl past the frame", mutate(func(b []byte) []byte { b[ipOff] = 0x4f; return b[:ipOff+40] }), ErrBadHeader},
		{"checksum", mutate(func(b []byte) []byte { b[ipOff+8]++; return b }), ErrBadChecksum},
		{"total length below ihl", fragmentLength(frame, 19), ErrBadHeader},
		{"short tcp", frame[:l4Off+19], ErrTruncated},
		{"tcp data offset 4", mutate(func(b []byte) []byte { b[l4Off+12] = 4 << 4; return b }), ErrBadHeader},
		{"tcp data offset past the frame", mutate(func(b []byte) []byte { b[l4Off+12] = 15 << 4; return b[:l4Off+40] }), ErrBadHeader},
		{"ok", frame, nil},
	} {
		if _, err := diffFlowKey(t, tc.frame); err != tc.want {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	udpKey := testKey()
	udpKey.Proto = flow.ProtoUDP
	udp, _ := Frame(nil, udpKey, 40, 0)
	if _, err := diffFlowKey(t, udp[:l4Off+7]); err != ErrTruncated {
		t.Errorf("short udp: %v, want ErrTruncated", err)
	}
	binary.BigEndian.PutUint16(udp[l4Off+4:], 7)
	if _, err := diffFlowKey(t, udp); err != ErrBadHeader {
		t.Errorf("udp length 7: %v, want ErrBadHeader", err)
	}
	// A transport without ports is keyed by addresses and protocol.
	icmp := fragmentProto(frame, flow.Proto(1))
	want := flow.Key{Src: testKey().Src, Dst: testKey().Dst, Proto: 1}
	if got, err := diffFlowKey(t, icmp); err != nil || got != want {
		t.Errorf("icmp: %v, %v, want %v", got, err, want)
	}
}

// fragmentLength rewrites the IPv4 total length, fragmentProto the
// protocol, each with the header checksum repaired.
func fragmentLength(frame []byte, length uint16) []byte {
	out := append([]byte(nil), frame...)
	binary.BigEndian.PutUint16(out[EthernetHeaderLen+2:], length)
	return fragment(out, 0, false)
}

func fragmentProto(frame []byte, proto flow.Proto) []byte {
	out := append([]byte(nil), frame...)
	out[EthernetHeaderLen+9] = byte(proto)
	return fragment(out, 0, false)
}

// FuzzFlowKey: on Frame output cut short and with bits flipped — and on
// whatever the fuzzer makes of it — FlowKey returns the struct decoders'
// key and their error, and never panics.
func FuzzFlowKey(f *testing.F) {
	for _, proto := range []flow.Proto{flow.ProtoTCP, flow.ProtoUDP} {
		key := testKey()
		key.Proto = proto
		frame, err := Frame(nil, key, 24, 9)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame, uint16(0), uint16(0))
		f.Add(frame, uint16(len(frame)-1), uint16(0))            // last byte cut
		f.Add(frame, uint16(EthernetHeaderLen+12), uint16(0))    // cut inside the IP header
		f.Add(frame, uint16(0), uint16(8*(EthernetHeaderLen)+4)) // version nibble flipped
		f.Add(fragment(frame, 185, true), uint16(0), uint16(0))
		f.Add(fragment(frame, 0, true), uint16(0), uint16(0))
	}
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, frame []byte, cut, flip uint16) {
		frame = append([]byte(nil), frame...)
		if cut != 0 && int(cut) < len(frame) {
			frame = frame[:cut]
		}
		if flip != 0 && int(flip/8) < len(frame) {
			frame[flip/8] ^= 1 << (flip % 8)
		}
		diffFlowKey(t, frame)
	})
}

var sinkKey flow.Key

func BenchmarkFlowKey(b *testing.B) {
	frame, _ := Frame(nil, testKey(), 500, 0)
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		key, err := FlowKey(frame)
		if err != nil {
			b.Fatal(err)
		}
		sinkKey = key
	}
}
