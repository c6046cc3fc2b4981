package flowtable

import (
	"fmt"
	"slices"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/randx"
)

// cmStream is a tape of observations for the lockstep tests, and the keys
// it holds.
type cmStream struct {
	name string
	obs  []Observation
	keys []flow.Key
}

// cmStreams returns the two shapes the lockstep tests replay: keys drawn
// uniformly from a space 30 times the slot budget, and a mice-heavy mix —
// a few heavy flows among a churn of one- and two-packet flows, the shape
// under which most adds to a full table cannot take a slot over.
func cmStreams(k, n int) []cmStream {
	g := randx.New(1097)
	var out []cmStream
	for _, name := range []string{"random", "mice-heavy"} {
		s := cmStream{name: name}
		seen := map[flow.Key]bool{}
		for i := 0; i < n; i++ {
			var key flow.Key
			switch {
			case name == "random":
				key = randKey(g, 30*k)
			case g.IntN(5) == 0:
				key = pkt(byte(g.IntN(8)), 0, 0).Key // heavy
			default:
				key = randKey(g, n) // mostly fresh mice
			}
			o := Observation{Key: key, Hash: key.FastHash(), Time: float64(i) * 1e-3, Size: int64(40 + g.IntN(1460))}
			s.obs = append(s.obs, o)
			if !seen[key] {
				seen[key] = true
				s.keys = append(s.keys, key)
			}
		}
		out = append(out, s)
	}
	return out
}

// cmMatchesRef fails unless the live sketch answers as the reference does:
// every tracked flow in slot order, the estimate of every key of the
// stream, the totals, the error bound and the top lists with their tie
// counts.
func cmMatchesRef(t *testing.T, label string, live *CountMin, ref *refCountMin, keys []flow.Key) {
	t.Helper()
	want := ref.AppendAll(nil)
	if got := live.AppendAll(nil); !slices.Equal(got, want) {
		t.Fatalf("%s: AppendAll diverges:\n live %v\n ref  %v", label, got, want)
	}
	for _, key := range keys {
		if got, want := live.Estimate(key), ref.Estimate(key); got != want {
			t.Fatalf("%s: Estimate(%v) = %d, reference %d", label, key, got, want)
		}
	}
	if live.TotalPackets() != ref.TotalPackets() || live.TotalBytes() != ref.TotalBytes() || live.ErrorBound() != ref.ErrorBound() {
		t.Fatalf("%s: packets/bytes/bound %d/%d/%d, reference %d/%d/%d", label,
			live.TotalPackets(), live.TotalBytes(), live.ErrorBound(), ref.TotalPackets(), ref.TotalBytes(), ref.ErrorBound())
	}
	for _, n := range []int{1, 10, live.k} {
		got, gotTies := live.AppendTopTies(nil, n)
		want, wantTies := ref.AppendTopTies(nil, n)
		if !slices.Equal(got, want) || gotTies != wantTies {
			t.Fatalf("%s: AppendTopTies(%d) = %v +%d ties, reference %v +%d", label, n, got, gotTies, want, wantTies)
		}
	}
}

// TestCountMinMatchesReference holds Count-Min in lockstep with its
// previous form (refCountMin: 48-byte slots, no early return, a grouped
// AddBatch), batch after batch of random lengths over two bins of each
// stream: moving the timestamps out of the slots, returning early from
// adds that cannot take a slot over and adding a batch one observation at
// a time change no answer the sketch gives.
func TestCountMinMatchesReference(t *testing.T) {
	const k = 64
	for _, s := range cmStreams(k, 20000) {
		live, ref := NewCountMin(flow.FiveTuple{}, k), newRefCountMin(flow.FiveTuple{}, k)
		g := randx.New(3)
		for bin := 0; bin < 2; bin++ {
			tape := s.obs
			for len(tape) > 0 {
				n := min(1+g.IntN(600), len(tape))
				if n == 1 {
					o := tape[0]
					live.AddAggregated(o.Key, o.Time, o.Size)
					ref.AddAggregated(o.Key, o.Time, o.Size)
				} else {
					live.AddBatch(tape[:n])
					ref.AddBatch(tape[:n])
				}
				tape = tape[n:]
				cmMatchesRef(t, fmt.Sprintf("%s bin %d, %d left", s.name, bin, len(tape)), live, ref, s.keys)
			}
			live.Reset()
			ref.Reset()
		}
	}
}

// TestCountMinResetClearsEveryCounter holds Count-Min in lockstep with the
// reference over bins of 0 to 3000 flows against 64 slots, resetting
// between them. A table that never filled zeroes only its tracked flows'
// counters and index words, a full one clears them all; either way every
// counter and every index word must read zero after Reset, and the next
// bin must answer as the reference's does.
func TestCountMinResetClearsEveryCounter(t *testing.T) {
	const k = 64
	live, ref := NewCountMin(flow.FiveTuple{}, k), newRefCountMin(flow.FiveTuple{}, k)
	g := randx.New(29)
	for bin, flows := range []int{40, 0, 1, 63, 64, 500, 10, 3000, 5, k - 1} {
		var keys []flow.Key
		for f := range flows {
			key := randKey(g, 1<<10)
			key.DstPort = uint16(f) // distinct: exactly flows flows
			keys = append(keys, key)
			for range 1 + g.IntN(5) {
				live.AddAggregated(key, float64(f), 100)
				ref.AddAggregated(key, float64(f), 100)
			}
		}
		cmMatchesRef(t, fmt.Sprintf("bin %d (%d flows)", bin, flows), live, ref, keys)
		live.Reset()
		ref.Reset()
		if i := slices.IndexFunc(live.rows, func(v int64) bool { return v != 0 }); i >= 0 {
			t.Fatalf("bin %d (%d flows): counter %d reads %d after Reset", bin, flows, i, live.rows[i])
		}
		if i := slices.IndexFunc(live.index, func(w uint64) bool { return w != 0 }); i >= 0 {
			t.Fatalf("bin %d (%d flows): index word %d reads %#x after Reset", bin, flows, i, live.index[i])
		}
	}
}
