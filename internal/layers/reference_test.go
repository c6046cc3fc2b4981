package layers

import "flowrank/internal/flow"

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
