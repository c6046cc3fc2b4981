// Package packet defines the packet record the simulators exchange and a
// compact binary format for packet traces.
//
// The on-disk format is a stream-friendly varint encoding: timestamps are
// delta-encoded (zig-zag, nanosecond resolution), sizes are uvarints and
// flow keys are fixed 13-byte tuples — addresses, ports in network order,
// protocol. That is the key's five fields and nothing else: the in-memory
// flow.Key is 16 bytes, padded so that a copy is one instruction, and the
// padding never reaches a file. A 30-minute Sprint-scale packet
// trace (~40M packets) encodes to roughly 0.6 GB versus 2.8 GB as pcap.
// The pcap format (internal/pcap) remains available for interoperability.
//
// Writer buffers 64 KiB; Reader reads through a 256 KiB bufio.Reader, as
// internal/pcap's does. Reader.ReadBlock, its one decode, reads a block of
// records in place at both ends — every whole record already buffered, up
// to the caller's block, from the bytes (binary.Uvarint over one Peek, one
// Discard) straight into the caller's Packets; a block of one packet reads
// one record — and falls back to byte-at-a-time decoding only for a record
// split across two refills of the buffer, the tail of the stream, and
// malformed input. So it buffers beyond the records it has returned, but
// never waits for a byte beyond the first record it is about to return: a
// trace streamed over a pipe yields each record as its last byte arrives.
// A decoded packet aliases nothing, and the reader starts no goroutine.
package packet

import "flowrank/internal/flow"

// BlockLen is the monitor's block length: how many packets the pipeline
// asks its source for at a time, the most a pcap source decodes per
// ReadBlock and the stream engine samples per SampleBlock call, so a block
// within one bin is one call at every layer, and the per-call work of each
// (an interface hop, a closed check) is paid once per block, not per
// packet. 8 KiB of packets stay in L1 between the decoder that writes them
// and the engine that reads them; a source never waits to fill a block, so
// a slow stream is not held back.
const BlockLen = 256

// Packet is a single observed packet: a timestamp (seconds from trace
// start), the flow it belongs to, and its size on the wire in bytes.
type Packet struct {
	Time float64
	Key  flow.Key
	Size int
}
