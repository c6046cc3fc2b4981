package stream

import (
	"context"
	"errors"
	"testing"

	"flowrank/internal/flow"
	"flowrank/internal/packet"
	"flowrank/internal/sampler"
)

func testConfig(workers int) Config {
	return Config{
		Agg:        flow.FiveTuple{},
		Sampler:    sampler.NewBernoulli(0.5, 1),
		BinSeconds: 1,
		TopT:       3,
		Workers:    workers,
		batchSize:  4,
	}
}

func pkt(t float64, src byte) packet.Packet {
	return packet.Packet{Time: t, Key: flow.Key{Src: flow.Addr{src, 0, 0, 1}}, Size: 100}
}

// TestContextCancelAborts: canceling the engine's context must abort the
// run — Feed fails with the cancellation identity, no partial bin is
// emitted, and Close returns the same error.
func TestContextCancelAborts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		bins := 0
		eng, err := NewEngineContext(ctx, testConfig(workers), func(BinResult) error {
			bins++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := eng.Feed(pkt(0.1+float64(i)*0.01, byte(i))); err != nil {
				t.Fatalf("workers=%d: feed %d: %v", workers, i, err)
			}
		}
		cancel()
		err = eng.Feed(pkt(0.5, 99))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Feed after cancel = %v, want context.Canceled identity", workers, err)
		}
		if errors.Is(err, ErrClosed) {
			t.Errorf("workers=%d: cancellation error shadowed by ErrClosed", workers)
		}
		// Close after cancellation keeps the original error and must not
		// flush the partial bin.
		if cerr := eng.Close(); !errors.Is(cerr, context.Canceled) {
			t.Errorf("workers=%d: Close after cancel = %v, want context.Canceled", workers, cerr)
		}
		if cerr := eng.Close(); !errors.Is(cerr, context.Canceled) {
			t.Errorf("workers=%d: double Close lost the cancel error: %v", workers, cerr)
		}
		if bins != 0 {
			t.Errorf("workers=%d: %d bins emitted after mid-stream cancel, want 0", workers, bins)
		}
	}
}

// TestContextCancelBeforeClose: a context canceled between the last Feed
// and Close must turn Close into an abort (no partial-bin flush) that
// reports the cancellation.
func TestContextCancelBeforeClose(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	bins := 0
	eng, err := NewEngineContext(ctx, testConfig(2), func(BinResult) error { bins++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(pkt(0.1, 1)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if cerr := eng.Close(); !errors.Is(cerr, context.Canceled) {
		t.Fatalf("Close = %v, want context.Canceled", cerr)
	}
	if bins != 0 {
		t.Errorf("%d bins flushed by a canceled Close, want 0", bins)
	}
}

// TestContextCause: a cause-carrying cancellation surfaces the cause.
func TestContextCause(t *testing.T) {
	cause := errors.New("operator hit the kill switch")
	ctx, cancel := context.WithCancelCause(context.Background())
	eng, err := NewEngineContext(ctx, testConfig(1), func(BinResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cancel(cause)
	if ferr := eng.Feed(pkt(0.1, 1)); !errors.Is(ferr, cause) {
		t.Fatalf("Feed after cancel(cause) = %v, want the cause identity", ferr)
	}
}

// TestCloseErrorIdentity is the regression test for the double-Close /
// Close-after-Abort error contract: the first run error is what every
// later Close and Feed returns — errors.Is against it stays true, and it
// is never shadowed by ErrClosed.
func TestCloseErrorIdentity(t *testing.T) {
	emitErr := errors.New("downstream store rejected the bin")
	eng, err := NewEngine(testConfig(2), func(BinResult) error { return emitErr })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(pkt(0.1, 1)); err != nil {
		t.Fatal(err)
	}
	first := eng.Close() // flush fails via the emit callback
	if !errors.Is(first, emitErr) {
		t.Fatalf("Close = %v, want the emit error", first)
	}
	if second := eng.Close(); !errors.Is(second, emitErr) || errors.Is(second, ErrClosed) {
		t.Fatalf("double Close = %v, want the original emit error, not ErrClosed", second)
	}
	if ferr := eng.Feed(pkt(0.2, 2)); !errors.Is(ferr, emitErr) || errors.Is(ferr, ErrClosed) {
		t.Fatalf("Feed after failed Close = %v, want the original emit error", ferr)
	}
}

// TestCloseAfterAbort: an error-free Abort then Close returns nil, and
// Feed reports ErrClosed.
func TestCloseAfterAbort(t *testing.T) {
	eng, err := NewEngine(testConfig(2), func(BinResult) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Feed(pkt(0.1, 1)); err != nil {
		t.Fatal(err)
	}
	eng.Abort()
	if cerr := eng.Close(); cerr != nil {
		t.Fatalf("Close after clean Abort = %v, want nil", cerr)
	}
	if ferr := eng.Feed(pkt(0.2, 2)); !errors.Is(ferr, ErrClosed) {
		t.Fatalf("Feed after Abort = %v, want ErrClosed identity", ferr)
	}
}

// TestNilContextRejected: NewEngineContext validates its context.
func TestNilContextRejected(t *testing.T) {
	//lint:ignore SA1012 the nil-context error path is the subject
	if _, err := NewEngineContext(nil, testConfig(1), func(BinResult) error { return nil }); err == nil {
		t.Fatal("nil context accepted")
	}
}

// TestContextBackgroundMatchesNewEngine: an engine under a background
// context behaves exactly like NewEngine — bins flow and Close flushes.
func TestContextBackgroundMatchesNewEngine(t *testing.T) {
	bins := 0
	eng, err := NewEngineContext(context.Background(), testConfig(2), func(b BinResult) error {
		bins++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := eng.Feed(pkt(float64(i)*0.2, byte(i%5))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if bins == 0 {
		t.Fatal("no bins emitted")
	}
}
