package layers

import (
	"encoding/binary"

	"flowrank/internal/flow"
)

// The struct decoders, in the style of gopacket's DecodingLayer: each
// fills a caller-owned header with no allocation and returns its payload.
// FlowKey makes the same checks without storing the fields; these are
// what it is tested against.

// DecodeFromBytes parses the header and returns the payload.
func (e *Ethernet) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < EthernetHeaderLen {
		return nil, ErrTruncated
	}
	copy(e.DstMAC[:], data[0:6])
	copy(e.SrcMAC[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	return data[EthernetHeaderLen:], nil
}

// DecodeFromBytes parses the header, verifies the checksum, and returns
// the L4 payload (truncated to the header's total length when the capture
// includes padding).
func (ip *IPv4) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < IPv4MinHeaderLen {
		return nil, ErrTruncated
	}
	if data[0]>>4 != 4 {
		return nil, ErrNotIPv4
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4MinHeaderLen || len(data) < ihl {
		return nil, ErrBadHeader
	}
	if Checksum(data[:ihl]) != 0 {
		return nil, ErrBadChecksum
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.Flags = data[6] >> 5
	ip.FragOff = binary.BigEndian.Uint16(data[6:8]) & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = flow.Proto(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	if int(ip.Length) < ihl {
		return nil, ErrBadHeader
	}
	end := int(ip.Length)
	if end > len(data) {
		end = len(data) // truncated capture: deliver what we have
	}
	return data[ihl:end], nil
}

// DecodeFromBytes parses the header and returns the payload.
func (t *TCP) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < TCPMinHeaderLen {
		return nil, ErrTruncated
	}
	off := int(data[12]>>4) * 4
	if off < TCPMinHeaderLen || len(data) < off {
		return nil, ErrBadHeader
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	t.DataOffset = off
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	return data[off:], nil
}

// DecodeFromBytes parses the header and returns the payload.
func (u *UDP) DecodeFromBytes(data []byte) ([]byte, error) {
	if len(data) < UDPHeaderLen {
		return nil, ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	if int(u.Length) < UDPHeaderLen {
		return nil, ErrBadHeader
	}
	return data[UDPHeaderLen:], nil
}

// Parser is the frame decode as it was before FlowKey: the four struct
// decoders driven down the Ethernet→IPv4→TCP/UDP chain, every field of
// every header stored. It is kept as the reference FlowKey must agree with
// on the key and on the error, and as the way these tests reach the other
// fields. The one rule it did not have is FlowKey's: a fragment that is
// not a datagram's first has no L4 header, so its ports stay zero.
type Parser struct {
	Eth Ethernet
	IP  IPv4
	TCP TCP
	UDP UDP
}

// Decoded reports which layers a Parse call filled in.
type Decoded struct {
	HasEthernet, HasIPv4, HasTCP, HasUDP bool
}

// Parse decodes frame and returns the 5-tuple key. Unknown transports
// yield a key with ports zero but a valid address pair.
func (p *Parser) Parse(frame []byte) (flow.Key, Decoded, error) {
	var dec Decoded
	payload, err := p.Eth.DecodeFromBytes(frame)
	if err != nil {
		return flow.Key{}, dec, err
	}
	dec.HasEthernet = true
	if p.Eth.EtherType != EtherTypeIPv4 {
		return flow.Key{}, dec, ErrNotIPv4
	}
	l4, err := p.IP.DecodeFromBytes(payload)
	if err != nil {
		return flow.Key{}, dec, err
	}
	dec.HasIPv4 = true
	key := flow.Key{Src: p.IP.Src, Dst: p.IP.Dst, Proto: p.IP.Protocol}
	if p.IP.FragOff != 0 {
		return key, dec, nil
	}
	switch p.IP.Protocol {
	case flow.ProtoTCP:
		if _, err := p.TCP.DecodeFromBytes(l4); err != nil {
			return key, dec, err
		}
		dec.HasTCP = true
		key.SrcPort, key.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case flow.ProtoUDP:
		if _, err := p.UDP.DecodeFromBytes(l4); err != nil {
			return key, dec, err
		}
		dec.HasUDP = true
		key.SrcPort, key.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return key, dec, nil
}
