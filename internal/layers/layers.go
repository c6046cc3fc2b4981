// Package layers implements the minimal wire-format encode/decode the
// experiments need — Ethernet II, IPv4, TCP and UDP. A monitor wants one
// thing of a frame, its 5-tuple, and FlowKey walks the usual
// Ethernet→IPv4→TCP/UDP chain for exactly that: every check a full decode
// makes, nothing stored but the key. The per-layer header structs are
// what Frame encodes through (AppendTo); the tests decode into them, in the
// style of gopacket's DecodingLayer, as the reference FlowKey must agree
// with.
//
// Encoding is the mirror image: Frame serializes a synthetic packet for a
// flow key (used by the pcap exporter), computing real IPv4 header and
// TCP/UDP pseudo-header checksums so that generated traces survive
// third-party tooling.
package layers

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flowrank/internal/flow"
)

// EtherType values understood by the parser.
const (
	EtherTypeIPv4 = 0x0800
)

// Errors returned by the decoders.
var (
	ErrTruncated   = errors.New("layers: truncated packet")
	ErrNotIPv4     = errors.New("layers: not an IPv4 packet")
	ErrBadChecksum = errors.New("layers: bad IPv4 header checksum")
	ErrBadHeader   = errors.New("layers: malformed header")
)

// Ethernet is an Ethernet II header.
type Ethernet struct {
	DstMAC, SrcMAC [6]byte
	EtherType      uint16
}

// headerLen constants.
const (
	EthernetHeaderLen = 14
	IPv4MinHeaderLen  = 20
	TCPMinHeaderLen   = 20
	UDPHeaderLen      = 8
)

// AppendTo serializes the header onto buf.
func (e *Ethernet) AppendTo(buf []byte) []byte {
	buf = append(buf, e.DstMAC[:]...)
	buf = append(buf, e.SrcMAC[:]...)
	return binary.BigEndian.AppendUint16(buf, e.EtherType)
}

// IPv4 is an IPv4 header (options unsupported on encode, skipped on
// decode).
type IPv4 struct {
	TOS      uint8
	Length   uint16 // total length including header
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol flow.Proto
	Checksum uint16
	Src, Dst flow.Addr
}

// AppendTo serializes a 20-byte header with a freshly computed checksum.
// ip.Length must already count header plus payload.
func (ip *IPv4) AppendTo(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, 0x45, ip.TOS)
	buf = binary.BigEndian.AppendUint16(buf, ip.Length)
	buf = binary.BigEndian.AppendUint16(buf, ip.ID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(ip.Flags)<<13|ip.FragOff)
	buf = append(buf, ip.TTL, byte(ip.Protocol))
	buf = binary.BigEndian.AppendUint16(buf, 0) // checksum placeholder
	buf = append(buf, ip.Src[:]...)
	buf = append(buf, ip.Dst[:]...)
	cs := Checksum(buf[start:])
	binary.BigEndian.PutUint16(buf[start+10:], cs)
	return buf
}

// TCP is a TCP header (options unsupported on encode, skipped on decode).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       int
	Flags            uint8
	Window           uint16
	Checksum         uint16
}

// TCP flag bits.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
)

// AppendTo serializes a 20-byte header; the checksum is computed by the
// caller (Frame) because it spans the pseudo-header and payload.
func (t *TCP) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, t.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, t.DstPort)
	buf = binary.BigEndian.AppendUint32(buf, t.Seq)
	buf = binary.BigEndian.AppendUint32(buf, t.Ack)
	buf = append(buf, 5<<4, t.Flags)
	buf = binary.BigEndian.AppendUint16(buf, t.Window)
	buf = binary.BigEndian.AppendUint16(buf, 0) // checksum placeholder
	return binary.BigEndian.AppendUint16(buf, 0)
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// AppendTo serializes the header with a zero checksum placeholder.
func (u *UDP) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, u.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, u.DstPort)
	buf = binary.BigEndian.AppendUint16(buf, u.Length)
	return binary.BigEndian.AppendUint16(buf, u.Checksum)
}

// Checksum computes the Internet checksum (RFC 1071) of data.
//
//flowrank:hotpath
func Checksum(data []byte) uint16 { return checksum(0, data) }

// checksum is the Internet checksum of data on top of an initial sum. The
// one's-complement sum does not care how its 16-bit words are grouped
// (2^16 ≡ 1 mod 2^16-1), so it is taken 8 bytes at a time, as two 32-bit
// halves into a 64-bit accumulator — a 20-byte header is three loads, not
// ten — and folded to 16 bits at the end.
//
//flowrank:hotpath
func checksum(sum uint64, data []byte) uint16 {
	for len(data) >= 8 {
		v := binary.BigEndian.Uint64(data)
		sum += v>>32 + v&0xffffffff
		data = data[8:]
	}
	if len(data) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint64(data[0]) << 8
	}
	sum = sum>>32 + sum&0xffffffff // < 2^33
	sum = sum>>16 + sum&0xffff     // < 2^18
	sum = sum>>16 + sum&0xffff     // < 2^16 + 3
	sum = sum>>16 + sum&0xffff
	return ^uint16(sum)
}

// pseudoHeaderSum is the IPv4 pseudo-header as an initial sum.
func pseudoHeaderSum(src, dst flow.Addr, proto flow.Proto, l4len int) uint64 {
	return uint64(binary.BigEndian.Uint32(src[:])) + uint64(binary.BigEndian.Uint32(dst[:])) +
		uint64(proto) + uint64(l4len)
}

// L4Checksum computes the TCP/UDP checksum over pseudo-header plus
// segment.
func L4Checksum(src, dst flow.Addr, proto flow.Proto, segment []byte) uint16 {
	return checksum(pseudoHeaderSum(src, dst, proto, len(segment)), segment)
}

// FlowKey returns the 5-tuple of an Ethernet frame carrying IPv4. It makes
// the checks of the struct decoders composed in order — EtherType, IP
// version, header length, header checksum, total length, then the TCP data
// offset or UDP length against the bytes present — and fails with their
// errors, but stores nothing except the key. Transports other than TCP and
// UDP yield a key with ports zero; so does every fragment but a
// datagram's first, whose payload has no L4 header to read ports from
// (the NetFlow convention: a flow's later fragments count under the
// address pair and protocol). On error the key is zero.
//
//flowrank:hotpath
func FlowKey(frame []byte) (flow.Key, error) {
	if len(frame) < EthernetHeaderLen {
		return flow.Key{}, ErrTruncated
	}
	if binary.BigEndian.Uint16(frame[12:14]) != EtherTypeIPv4 {
		return flow.Key{}, ErrNotIPv4
	}
	ip := frame[EthernetHeaderLen:]
	if len(ip) < IPv4MinHeaderLen {
		return flow.Key{}, ErrTruncated
	}
	if ip[0]>>4 != 4 {
		return flow.Key{}, ErrNotIPv4
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4MinHeaderLen || len(ip) < ihl {
		return flow.Key{}, ErrBadHeader
	}
	if Checksum(ip[:ihl]) != 0 {
		return flow.Key{}, ErrBadChecksum
	}
	end := int(binary.BigEndian.Uint16(ip[2:4]))
	if end < ihl {
		return flow.Key{}, ErrBadHeader
	}
	if end > len(ip) {
		end = len(ip) // truncated capture: what is there decides
	}
	l4 := ip[ihl:end]
	key := flow.Key{Src: flow.Addr(ip[12:16]), Dst: flow.Addr(ip[16:20]), Proto: flow.Proto(ip[9])}
	if binary.BigEndian.Uint16(ip[6:8])&0x1fff != 0 {
		return key, nil // not a first fragment: no L4 header here
	}
	switch key.Proto {
	case flow.ProtoTCP:
		if len(l4) < TCPMinHeaderLen {
			return flow.Key{}, ErrTruncated
		}
		if off := int(l4[12]>>4) * 4; off < TCPMinHeaderLen || len(l4) < off {
			return flow.Key{}, ErrBadHeader
		}
	case flow.ProtoUDP:
		if len(l4) < UDPHeaderLen {
			return flow.Key{}, ErrTruncated
		}
		if binary.BigEndian.Uint16(l4[4:6]) < UDPHeaderLen {
			return flow.Key{}, ErrBadHeader
		}
	default:
		return key, nil
	}
	key.SrcPort = binary.BigEndian.Uint16(l4[0:2])
	key.DstPort = binary.BigEndian.Uint16(l4[2:4])
	return key, nil
}

// Frame serializes a complete Ethernet/IPv4/{TCP,UDP} frame for the given
// flow key carrying payloadLen bytes of zero payload, appending to buf.
// seq sets the TCP sequence number (ignored for UDP). The total wire
// length is EthernetHeaderLen + 20 + (20 or 8) + payloadLen.
func Frame(buf []byte, key flow.Key, payloadLen int, seq uint32) ([]byte, error) {
	if payloadLen < 0 {
		return nil, fmt.Errorf("layers: negative payload length %d", payloadLen)
	}
	var l4HeaderLen int
	switch key.Proto {
	case flow.ProtoTCP:
		l4HeaderLen = TCPMinHeaderLen
	case flow.ProtoUDP:
		l4HeaderLen = UDPHeaderLen
	default:
		return nil, fmt.Errorf("layers: cannot build frame for protocol %v", key.Proto)
	}
	eth := Ethernet{
		DstMAC:    [6]byte{0x02, 0, 0, key.Dst[1], key.Dst[2], key.Dst[3]},
		SrcMAC:    [6]byte{0x02, 0, 0, key.Src[1], key.Src[2], key.Src[3]},
		EtherType: EtherTypeIPv4,
	}
	buf = eth.AppendTo(buf)
	ip := IPv4{
		Length:   uint16(IPv4MinHeaderLen + l4HeaderLen + payloadLen),
		TTL:      64,
		Protocol: key.Proto,
		Src:      key.Src,
		Dst:      key.Dst,
	}
	buf = ip.AppendTo(buf)
	l4Start := len(buf)
	switch key.Proto {
	case flow.ProtoTCP:
		t := TCP{SrcPort: key.SrcPort, DstPort: key.DstPort, Seq: seq, Flags: TCPAck, Window: 65535}
		buf = t.AppendTo(buf)
	case flow.ProtoUDP:
		u := UDP{SrcPort: key.SrcPort, DstPort: key.DstPort, Length: uint16(UDPHeaderLen + payloadLen)}
		buf = u.AppendTo(buf)
	}
	for i := 0; i < payloadLen; i++ {
		buf = append(buf, 0)
	}
	// Fill the L4 checksum over pseudo-header + segment.
	segment := buf[l4Start:]
	var csOff int
	switch key.Proto {
	case flow.ProtoTCP:
		csOff = 16
	case flow.ProtoUDP:
		csOff = 6
	}
	binary.BigEndian.PutUint16(segment[csOff:], 0)
	cs := L4Checksum(key.Src, key.Dst, key.Proto, segment)
	if key.Proto == flow.ProtoUDP && cs == 0 {
		cs = 0xffff // RFC 768: transmitted as all ones
	}
	binary.BigEndian.PutUint16(segment[csOff:], cs)
	return buf, nil
}
