package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
)

// TestPipeStreamsAndCloses pins the in-memory connection's byte-stream
// contract: odd-sized writes and reads wrap the ring many times and
// deliver every byte in order; a close lets the peer drain what was
// written before it reads EOF, fails the peer's writes, and fails the
// closer's own reads with net.ErrClosed.
func TestPipeStreamsAndCloses(t *testing.T) {
	a, b := newPipe()
	want := make([]byte, 3*pipeSize+123)
	for i := range want {
		want[i] = byte(i % 251)
	}
	errc := make(chan error, 1)
	go func() {
		for off := 0; off < len(want); off += 1000 {
			if _, err := a.Write(want[off:min(off+1000, len(want))]); err != nil {
				errc <- err
				return
			}
		}
		errc <- a.Close()
	}()
	var got bytes.Buffer
	buf := make([]byte, 777)
	for {
		n, err := b.Read(buf)
		got.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("read %d bytes, want %d in order", got.Len(), len(want))
	}
	if _, err := b.Write([]byte("x")); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}
	if _, err := a.Read(buf); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read after own close: %v, want net.ErrClosed", err)
	}
	b.Close()
}
