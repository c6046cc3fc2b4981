package source

import (
	"errors"
	"io"
	"testing"
	"time"

	"flowrank/internal/packet"
)

// fakeClock drives a Paced source deterministically: sleep advances the
// clock instead of blocking.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func pacedOver(pkts []packet.Packet, speed float64) (*Paced, *fakeClock) {
	p := Pace(NewSlice(pkts), speed)
	c := &fakeClock{now: time.Unix(1000, 0)}
	p.now = c.Now
	p.sleep = c.Sleep
	return p, c
}

// TestPaceLineRate: at speed 1 the sleeps must reproduce the trace's
// inter-packet gaps; the first packet anchors and never sleeps.
func TestPaceLineRate(t *testing.T) {
	pkts := []packet.Packet{{Time: 10}, {Time: 10.5}, {Time: 12}, {Time: 12}}
	p, c := pacedOver(pkts, 1)
	var pk packet.Packet
	for range pkts {
		if err := next(p, &pk); err != nil {
			t.Fatal(err)
		}
	}
	want := []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond}
	if len(c.sleeps) != len(want) {
		t.Fatalf("sleeps %v, want %v (equal-timestamp packets must not sleep)", c.sleeps, want)
	}
	for i := range want {
		if c.sleeps[i] != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, c.sleeps[i], want[i])
		}
	}
	if err := next(p, &pk); !errors.Is(err, io.EOF) {
		t.Fatalf("after EOF: %v", err)
	}
}

// TestPaceSpeedMultiplier: speed k divides every gap by k.
func TestPaceSpeedMultiplier(t *testing.T) {
	pkts := []packet.Packet{{Time: 0}, {Time: 4}}
	p, c := pacedOver(pkts, 8)
	var pk packet.Packet
	for range pkts {
		if err := next(p, &pk); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.sleeps) != 1 || c.sleeps[0] != 500*time.Millisecond {
		t.Fatalf("sleeps %v, want [500ms] (4 s gap at 8x)", c.sleeps)
	}
}

// TestPaceBehindSchedule: when delivery falls behind (the clock already
// passed the target) a read must not sleep at all.
func TestPaceBehindSchedule(t *testing.T) {
	pkts := []packet.Packet{{Time: 0}, {Time: 0.1}}
	p, c := pacedOver(pkts, 1)
	var pk packet.Packet
	if err := next(p, &pk); err != nil {
		t.Fatal(err)
	}
	c.now = c.now.Add(5 * time.Second) // processing ran long
	if err := next(p, &pk); err != nil {
		t.Fatal(err)
	}
	if len(c.sleeps) != 0 {
		t.Fatalf("slept %v while behind schedule", c.sleeps)
	}
}

// TestPaceValidation: non-positive and non-finite speeds are programmer
// errors.
func TestPaceValidation(t *testing.T) {
	for _, speed := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pace(speed=%g) did not panic", speed)
				}
			}()
			Pace(NewSlice(nil), speed)
		}()
	}
}

// TestPaceClose closes through to the wrapped source.
func TestPaceClose(t *testing.T) {
	p := Pace(NewSlice([]packet.Packet{{Time: 1}}), 1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var pk packet.Packet
	if err := next(p, &pk); !errors.Is(err, ErrClosedSource) {
		t.Fatalf("read after Close = %v, want ErrClosedSource", err)
	}
}
