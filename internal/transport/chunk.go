package transport

// chunker chops an incremental serialization into fixed-budget chunks
// and hands each to a blocking send callback — the host's credit-gated
// chunk-frame write. The send copies the chunk onto the connection
// before it returns, so one reused buffer makes the transfer
// allocation-steady. Chunk boundaries depend only on the budget, which
// is what makes frame counts window- and connection-invariant.
type chunker struct {
	send   func([]byte) error
	budget int
	buf    []byte
}

func newChunker(budget int, send func([]byte) error) *chunker {
	return &chunker{send: send, budget: budget}
}

func (w *chunker) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) > 0 {
		space := w.budget - len(w.buf)
		if space == 0 {
			if err := w.flush(); err != nil {
				return total - len(p), err
			}
			continue
		}
		n := min(space, len(p))
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
	}
	return total, nil
}

// flush ships the current chunk (a no-op when empty). The send callback
// blocks while the receiver's credits are exhausted — or fails, halting
// the sender.
func (w *chunker) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if err := w.send(w.buf); err != nil {
		return err
	}
	w.buf = w.buf[:0]
	return nil
}
