//go:build unix

package source

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"flowrank/internal/packet"
)

// TestCloseUnblocksNextOnPipe: Open over a named pipe whose writer has gone
// quiet; a Close from another goroutine unblocks the pending Next with an
// error a caller can tell from corruption, for both formats.
func TestCloseUnblocksNextOnPipe(t *testing.T) {
	for _, isPcap := range []bool{false, true} {
		encode := encodeNative
		if isPcap {
			encode = encodePcap
		}
		path := filepath.Join(t.TempDir(), "fifo")
		if err := syscall.Mkfifo(path, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		release, done := make(chan struct{}), make(chan struct{})
		wrote := make(chan error, 1) // one send: the writer never waits on the test
		go func() {
			defer close(done)
			w, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				wrote <- err
				return
			}
			defer w.Close()
			_, err = w.Write(encode(t, testPackets(t)[:2]))
			wrote <- err
			<-release // hold the pipe open: no EOF for the reader
		}()
		src, err := Open(path, isPcap)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		var p packet.Packet
		for i := 0; i < 2; i++ {
			if err := src.Next(&p); err != nil {
				t.Fatalf("pcap=%v: packet %d: %v", isPcap, i, err)
			}
		}
		got := make(chan error, 1)
		go func() {
			var p packet.Packet
			got <- src.Next(&p)
		}()
		select {
		case err := <-got:
			t.Fatalf("pcap=%v: Next returned %v with the pipe open and empty", isPcap, err)
		case <-time.After(20 * time.Millisecond): // in the blocking read by now; the test holds either way
		}
		if err := src.Close(); err != nil {
			t.Errorf("pcap=%v: Close: %v", isPcap, err)
		}
		select {
		case err := <-got:
			if !errors.Is(err, ErrClosedSource) && !errors.Is(err, os.ErrClosed) {
				t.Errorf("pcap=%v: Next unblocked by Close = %v, want ErrClosedSource or os.ErrClosed", isPcap, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("pcap=%v: Close did not unblock the pending Next", isPcap)
		}
		close(release)
		<-done // gone before the next test counts goroutines (readahead_test.go)
	}
}
