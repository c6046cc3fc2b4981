package flowtable

import (
	"testing"

	"flowrank/internal/flow"
)

// meanIndexDisplacement is how far, on average, a tracked key's index
// word sits from the word its probe starts at.
func meanIndexDisplacement(s *slots) float64 {
	mask := uint64(len(s.index) - 1)
	var sum uint64
	for i, w := range s.index {
		if w != 0 {
			sum += (uint64(i) - flatHome(s.hashes[uint32(w)-1], mask)) & mask
		}
	}
	return float64(sum) / float64(len(s.entries))
}

// TestSlotsIndexIgnoresShardBits is TestFlatProbeIgnoresShardBits for the
// sketches' key index: shard 0 of 8 holds only keys whose hash is 0 mod
// 8, and its index must probe like an unsharded one — the home word may
// not come from the bits the shard choice fixed.
func TestSlotsIndexIgnoresShardBits(t *testing.T) {
	const k = 1 << 16 // 131072 index words: load 1/2 when full
	displacement := func(keep func(uint64) bool) float64 {
		s := newSlots(k)
		for id := uint32(0); s.Len() < k; id++ {
			key := flow.Key{
				Src: flow.Addr{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)},
				Dst: flow.Addr{10, 0, 0, 1}, SrcPort: 443, Proto: flow.ProtoTCP,
			}
			if h := key.FastHash(); keep(h) {
				s.insert(flatSlot{Key: key, Packets: 1}, 0, h)
			}
		}
		if len(s.index) != slotsIndexWordsPerSlot*k {
			t.Fatalf("index has %d words, want %d (the load is the premise)", len(s.index), slotsIndexWordsPerSlot*k)
		}
		return meanIndexDisplacement(&s)
	}
	whole := displacement(func(uint64) bool { return true })
	shard := displacement(func(h uint64) bool { return h%8 == 0 })
	t.Logf("mean index displacement: unsharded %.3f, shard 0 of 8 %.3f", whole, shard)
	if shard > 1.2*whole {
		t.Fatalf("a shard's index probes %.2fx further than an unsharded one (%.3f vs %.3f): the home word shares bits with the shard choice",
			shard/whole, shard, whole)
	}
}

// FuzzSlotsIndex drives the sketches' key index — linear probes, the
// backward-shift delete of a takeover, reset — against a Go map, the index
// slots used to have. The byte stream is an op tape over 64 keys whose
// hashes the test assigns: 16 home words (every word of the 16-word index
// of an 8-slot store, so runs wrap around the array end) and two tags (so
// a probe meets both tag misses and tag hits that are not the key). After
// every operation each of the 64 keys must resolve exactly as the map says.
func FuzzSlotsIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 15, 1, 0, 31, 1, 0, 14, 1, 1, 47, 9, 2, 15, 0, 3, 0, 0})
	tape := make([]byte, 0, 3*300)
	for i := 0; i < 300; i++ { // fills the store, then takeovers in runs that cross the array end
		tape = append(tape, byte(i%7%3), byte(13+i*5%4+i/9*16), byte(i))
	}
	f.Add(tape)
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 8
		keyOf := func(a byte) (flow.Key, uint64) {
			a &= 63
			return flow.Key{Src: flow.Addr{a, 0, 0, 1}, Proto: flow.ProtoTCP},
				uint64(a&15)<<flatHomeShift | uint64(a>>5)<<40
		}
		s := newSlots(k)
		ref := map[flow.Key]int32{}
		for step := 0; len(data) >= 3; step++ {
			op, a, c := data[0], data[1], data[2]
			data = data[3:]
			key, hash := keyOf(a)
			_, tracked := ref[key]
			switch op % 4 {
			case 0, 1: // track the key: a free slot while there is one, else the weakest slot
				if tracked {
					break
				}
				if s.Len() < k {
					ref[key] = int32(s.Len())
					s.insert(flatSlot{Key: key, Packets: int64(c)}, 0, hash)
					break
				}
				id := s.h[0]
				delete(ref, s.entries[id].Key)
				ref[key] = id
				s.takeover(id, flatSlot{Key: key, Packets: s.entries[id].Packets + int64(c)}, 0, hash)
			case 2: // a hit that grows the count: the heap moves, the index must not
				if tracked {
					id := ref[key]
					s.entries[id].Packets += int64(c)
					s.siftDown(s.pos[id])
				}
			case 3:
				if c%8 == 0 {
					s.reset()
					clear(ref)
				}
			}
			words := 0
			for _, w := range s.index {
				if w != 0 {
					words++
				}
			}
			if words != len(ref) || s.Len() != len(ref) {
				t.Fatalf("step %d: %d index words, %d slots, reference holds %d keys", step, words, s.Len(), len(ref))
			}
			for a := byte(0); a < 64; a++ {
				key, hash := keyOf(a)
				want, wantOK := ref[key]
				if got, ok := s.find(key, hash); ok != wantOK || (ok && got != want) {
					t.Fatalf("step %d: find(key %d) = %d,%v, reference %d,%v", step, a, got, ok, want, wantOK)
				}
			}
		}
	})
}
