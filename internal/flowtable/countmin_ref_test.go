package flowtable

import (
	"math/bits"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
	"flowrank/internal/randx"
)

// refCountMin is CountMin as it was before its slots narrowed to 32 bytes,
// and before a full table's add returned early when the estimate could
// not take a slot over: 48-byte Entry slots with timestamps, every add
// probing the key index, and an AddBatch that loads the counters and index
// words of flatBatchGroup observations together before adding them. The
// lockstep tests (countmin_test.go) hold the live CountMin to it. The
// slot store under it is refSlots, the tracked-slot store of the same
// revision. Comments are dropped; the code is unchanged but for the names.
type refSlots struct {
	k       int
	entries []Entry  // len <= k
	hashes  []uint64 // slot id -> entries[id].Key.FastHash()
	h       []int32  // min-heap of slot ids ordered by entries[id].Packets
	pos     []int32  // slot id -> heap index
	index   []uint64 // open-addressed key index, power-of-two length
	packets int64
	bytesT  int64
}

func newRefSlots(k int) refSlots {
	k = min(max(k, 1), MaxSlots)
	return refSlots{
		k:       k,
		entries: make([]Entry, 0, k),
		hashes:  make([]uint64, 0, k),
		h:       make([]int32, 0, k),
		pos:     make([]int32, 0, k),
		index:   make([]uint64, 1<<bits.Len(uint(slotsIndexWordsPerSlot*k-1))),
	}
}

func (s *refSlots) find(key flow.Key, hash uint64) (id int32, ok bool) {
	mask := uint64(len(s.index) - 1)
	tag := hash >> 32
	for i := flatHome(hash, mask); ; i = (i + 1) & mask {
		w := s.index[i]
		if w == 0 {
			return 0, false
		}
		if w>>32 == tag {
			if id := int32(uint32(w)) - 1; s.entries[id].Key == key {
				return id, true
			}
		}
	}
}

func (s *refSlots) indexPut(hash uint64, id int32) {
	mask := uint64(len(s.index) - 1)
	i := flatHome(hash, mask)
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = hash>>32<<32 | uint64(id+1)
}

func (s *refSlots) indexDelete(id int32) {
	mask := uint64(len(s.index) - 1)
	i := flatHome(s.hashes[id], mask)
	for uint32(s.index[i]) != uint32(id+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		w := s.index[j]
		if home := flatHome(s.hashes[uint32(w)-1], mask); (j-home)&mask >= (j-i)&mask {
			s.index[i] = w
			i = j
		}
	}
	s.index[i] = 0
}

func (s *refSlots) insert(e Entry, hash uint64) {
	id := int32(len(s.entries)) // also the heap's next leaf: every slot is in h
	s.entries = append(s.entries, e)
	s.hashes = append(s.hashes, hash)
	s.indexPut(hash, id)
	s.pos = append(s.pos, id)
	s.h = append(s.h, id)
	s.siftUp(id)
}

func (s *refSlots) takeover(id int32, e Entry, hash uint64) {
	s.indexDelete(id)
	s.entries[id] = e
	s.hashes[id] = hash
	s.indexPut(hash, id)
	s.siftDown(s.pos[id])
}

func (s *refSlots) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.entries[s.h[parent]].Packets <= s.entries[s.h[i]].Packets {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *refSlots) siftDown(i int32) {
	n := int32(len(s.h))
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.entries[s.h[l]].Packets < s.entries[s.h[min]].Packets {
			min = l
		}
		if r < n && s.entries[s.h[r]].Packets < s.entries[s.h[min]].Packets {
			min = r
		}
		if min == i {
			return
		}
		s.swap(i, min)
		i = min
	}
}

func (s *refSlots) swap(i, j int32) {
	s.h[i], s.h[j] = s.h[j], s.h[i]
	s.pos[s.h[i]] = i
	s.pos[s.h[j]] = j
}

func (s *refSlots) reset() {
	s.entries = s.entries[:0]
	s.hashes = s.hashes[:0]
	s.h = s.h[:0]
	s.pos = s.pos[:0]
	clear(s.index)
	s.packets, s.bytesT = 0, 0
}

func (s *refSlots) Len() int { return len(s.entries) }

func (s *refSlots) TotalPackets() int64 { return s.packets }

func (s *refSlots) TotalBytes() int64 { return s.bytesT }

func (s *refSlots) Lookup(key flow.Key) (Entry, bool) {
	id, ok := s.find(key, key.FastHash())
	if !ok {
		return Entry{}, false
	}
	return s.entries[id], true
}

func (s *refSlots) AppendAll(dst []Entry) []Entry { return append(dst, s.entries...) }

func (s *refSlots) AppendEntries(dst []Entry) []Entry { return appendSorted(s, dst) }

func (s *refSlots) AppendTop(dst []Entry, k int) []Entry {
	dst, _ = s.AppendTopTies(dst, k)
	return dst
}

func (s *refSlots) AppendTopTies(dst []Entry, k int) ([]Entry, int) {
	r := newRanker(dst, k, len(s.entries))
	for i := range s.entries {
		if r.wants(s.entries[i].Packets) {
			r.offer(s.entries[i])
		}
	}
	return r.result()
}

func (s *refSlots) AppendCounts(dst map[flow.Key]int64) map[flow.Key]int64 {
	if dst == nil {
		dst = make(map[flow.Key]int64, len(s.entries))
	}
	for i := range s.entries {
		dst[s.entries[i].Key] = s.entries[i].Packets
	}
	return dst
}

type refCountMin struct {
	refSlots
	agg     flow.Aggregator
	width   uint64  // power of two
	rows    []int64 // cmDepth rows of width counters, one slab
	touched uint64
}

// refCMOffsets is one key's counter in every row, as indices into rows:
// the grouped AddBatch saves them between the pass that loads a group's
// counters and the pass that adds its observations.
type refCMOffsets [cmDepth]uint32

func newRefCountMin(agg flow.Aggregator, k int) *refCountMin {
	sl := newRefSlots(k)
	width := uint64(1) << bits.Len(uint(4*sl.k-1))
	return &refCountMin{refSlots: sl, agg: agg, width: width, rows: make([]int64, cmDepth*int(width))}
}

func (c *refCountMin) offset(h uint64, r int) uint32 {
	return uint32(uint64(r)*c.width + randx.Mix64(h^cmSeeds[r])&(c.width-1))
}

func (c *refCountMin) Add(p packet.Packet) {
	c.AddAggregated(c.agg.Aggregate(p.Key), p.Time, int64(p.Size))
}

func (c *refCountMin) AddAggregated(key flow.Key, time float64, size int64) {
	h := key.FastHash()
	var o refCMOffsets
	for r := range o {
		o[r] = c.offset(h, r)
	}
	c.add(key, h, &o, time, size)
}

func (c *refCountMin) add(key flow.Key, hash uint64, o *refCMOffsets, time float64, size int64) {
	c.packets++
	c.bytesT += size
	est := c.bump(o)
	if id, ok := c.find(key, hash); ok {
		e := &c.entries[id]
		e.Packets = est
		e.Bytes += size
		e.Last = time
		c.siftDown(c.pos[id])
		return
	}
	if len(c.entries) < c.k {
		c.insert(Entry{Key: key, Packets: est, Bytes: size, First: time, Last: time}, hash)
		return
	}
	if id := c.h[0]; est > c.entries[id].Packets {
		c.takeover(id, Entry{Key: key, Packets: est, Bytes: size, First: time, Last: time}, hash)
	}
}

func (c *refCountMin) bump(o *refCMOffsets) int64 {
	est := int64(1<<63 - 1)
	for r := range o {
		v := c.rows[o[r]] + 1
		c.rows[o[r]] = v
		if v < est {
			est = v
		}
	}
	return est
}

func (c *refCountMin) Estimate(key flow.Key) int64 {
	h := key.FastHash()
	est := int64(1<<63 - 1)
	for r := 0; r < cmDepth; r++ {
		if v := c.rows[c.offset(h, r)]; v < est {
			est = v
		}
	}
	return est
}

func (c *refCountMin) ErrorBound() int64 {
	return (2*c.packets + int64(c.width) - 1) / int64(c.width)
}

func (c *refCountMin) AddBatch(batch []Observation) {
	var offs [flatBatchGroup]refCMOffsets
	imask := uint64(len(c.index) - 1)
	for len(batch) > 0 {
		g := batch[:min(flatBatchGroup, len(batch))]
		batch = batch[len(g):]
		var touched uint64
		for i := range g {
			h := g[i].Hash
			for r := range offs[i] {
				j := c.offset(h, r)
				offs[i][r] = j
				touched += uint64(c.rows[j])
			}
			touched += c.index[flatHome(h, imask)]
		}
		c.touched += touched
		for i := range g {
			c.add(g[i].Key, g[i].Hash, &offs[i], g[i].Time, g[i].Size)
		}
	}
}

func (c *refCountMin) Reset() {
	clear(c.rows)
	c.reset()
}
