//go:build live && linux

package source

import (
	"fmt"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"flowrank/internal/layers"
	"flowrank/internal/packet"
)

// live captures packets from a network interface through an AF_PACKET
// raw socket — the stdlib-only equivalent of a gopacket/libpcap handle.
// Frames are keyed with the same layers.FlowKey the pcap path uses, and
// timestamps are wall-clock seconds since the first captured frame, so
// downstream binning sees the same shape as a trace replay.
type live struct {
	fd     int
	buf    []byte
	start  time.Time
	began  bool
	err    error // the first recv error, returned by every later read
	closed atomic.Bool
}

// htons converts a short to network byte order.
func htons(v uint16) uint16 { return v<<8 | v>>8 }

const ethPAll = 0x0003 // ETH_P_ALL: every protocol

// NewLive opens an AF_PACKET capture bound to the named interface.
// snapLen caps the bytes read per frame (0 means 64 KiB). Requires
// CAP_NET_RAW (typically root).
func NewLive(iface string, snapLen int) (PacketSource, error) {
	if snapLen <= 0 {
		snapLen = 65536
	}
	ifi, err := net.InterfaceByName(iface)
	if err != nil {
		return nil, fmt.Errorf("source: live interface %q: %w", iface, err)
	}
	fd, err := syscall.Socket(syscall.AF_PACKET, syscall.SOCK_RAW, int(htons(ethPAll)))
	if err != nil {
		return nil, fmt.Errorf("source: AF_PACKET socket: %w", err)
	}
	sa := &syscall.SockaddrLinklayer{Protocol: htons(ethPAll), Ifindex: ifi.Index}
	if err := syscall.Bind(fd, sa); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("source: binding to %q: %w", iface, err)
	}
	return &live{fd: fd, buf: make([]byte, snapLen)}, nil
}

// NextBlock blocks for the next decodable frame and returns it alone: a
// socket read returns one.
func (l *live) NextBlock(buf []packet.Packet) (int, error) {
	for {
		if l.closed.Load() {
			return 0, fmt.Errorf("source: live read after close: %w", ErrClosedSource)
		}
		if l.err != nil {
			return 0, l.err
		}
		n, _, err := syscall.Recvfrom(l.fd, l.buf, 0)
		if err != nil {
			if err == syscall.EINTR {
				continue
			}
			if l.closed.Load() {
				return 0, fmt.Errorf("source: live capture closed: %w", ErrClosedSource)
			}
			l.err = fmt.Errorf("source: live recv: %w", err)
			return 0, l.err
		}
		now := time.Now()
		if !l.began {
			l.began = true
			l.start = now
		}
		key, kerr := layers.FlowKey(l.buf[:n])
		if kerr != nil {
			continue // skip undecodable frames
		}
		p := &buf[0]
		p.Time = now.Sub(l.start).Seconds()
		p.Key = key
		p.Size = n
		return 1, nil
	}
}

// Close shuts the socket down, unblocking a pending read.
func (l *live) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	return syscall.Close(l.fd)
}
