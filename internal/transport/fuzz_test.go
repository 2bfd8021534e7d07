package transport

import (
	"bytes"
	"testing"
)

// FuzzFrameCodec drives the frame reader with arbitrary bytes: it must
// decode or error — truncated, oversized and garbage frames included —
// and every frame it does accept must survive an encode/decode round
// trip bit-for-bit. It must never panic and never allocate proportional
// to a hostile length prefix (the reader refuses lengths beyond
// maxFramePayload before reading them).
func FuzzFrameCodec(f *testing.F) {
	var seed bytes.Buffer
	fw := frameWriter{w: &seed}
	for _, fr := range sampleFrames() {
		fw.write(fr)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:7])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add([]byte{0, 0, 0, 2, byte(frameError), 'x'})
	f.Add([]byte{0, 0, 0, 1, 0xEE})
	// Hostile credit fields: a zero window grant, an all-ones grant, a
	// cumulative ack of 2^64-1, and v3-shaped (windowless) hello/ack
	// frames that are short on the v4 wire. The codec must decode or
	// error without allocating for the claimed values — credits are
	// counters, never buffer sizes.
	f.Add([]byte{0, 0, 0, 10, byte(frameHello), protocolVersion, 0, 0, 16, 0, 0, 0, 0, 0xAB})
	f.Add([]byte{0, 0, 0, 10, byte(frameHello), protocolVersion, 0, 0, 16, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 13, byte(frameAck), 0, 0, 0, 9, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 6, byte(frameHello), protocolVersion, 0, 0, 16, 0})
	f.Add([]byte{0, 0, 0, 5, byte(frameAck), 0, 0, 0, 9})
	f.Add([]byte{0, 0, 0, 17, byte(frameBegin), 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 4, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	// Stream errors carry a refusal code since v6: a v5-shaped frame
	// (no code byte) is short, and an unknown code must still decode.
	f.Add([]byte{0, 0, 0, 5, byte(frameStreamErr), 0, 0, 0, 9})
	f.Add([]byte{0, 0, 0, 8, byte(frameStreamErr), 0, 0, 0, 9, byte(RefuseOverCapacity), 'c', 'a'})
	f.Add([]byte{0, 0, 0, 6, byte(frameStreamErr), 0, 0, 0, 9, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFrameReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			decoded, err := fr.read()
			if err != nil {
				return // any error is fine; panics and hangs are not
			}
			// Round trip: what the reader accepts, the writer must
			// reproduce and the reader must re-accept identically.
			var buf bytes.Buffer
			w := frameWriter{w: &buf}
			if werr := w.write(decoded); werr != nil {
				t.Fatalf("decoded frame %+v does not re-encode: %v", decoded, werr)
			}
			again, rerr := newFrameReader(&buf).read()
			if rerr != nil {
				t.Fatalf("re-encoded frame %+v does not decode: %v", decoded, rerr)
			}
			if !frameEqual(decoded, again) {
				t.Fatalf("round trip changed frame: %+v vs %+v", decoded, again)
			}
		}
	})
}

// FuzzChunker checks the chunking invariant the wire relies on: any
// write pattern reassembles to the same bytes, every chunk except the
// last is exactly the budget, and the chunk sequence depends only on
// the budget — not on how writes were sliced.
func FuzzChunker(f *testing.F) {
	f.Add([]byte("<eurostat>\n  <averages/>\n</eurostat>\n"), uint8(4), uint8(3))
	f.Add(bytes.Repeat([]byte("ab"), 300), uint8(16), uint8(1))
	f.Add([]byte{}, uint8(1), uint8(5))

	f.Fuzz(func(t *testing.T, doc []byte, budgetRaw, sliceRaw uint8) {
		budget := int(budgetRaw)%64 + 1
		slice := int(sliceRaw)%17 + 1
		var chunks [][]byte
		cw := newChunker(budget, func(c []byte) error {
			if len(c) == 0 || len(c) > budget {
				t.Fatalf("chunk of %d bytes under budget %d", len(c), budget)
			}
			chunks = append(chunks, append([]byte(nil), c...))
			return nil
		})
		for off := 0; off < len(doc); off += slice {
			if _, err := cw.Write(doc[off:min(off+slice, len(doc))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.flush(); err != nil {
			t.Fatal(err)
		}
		var got []byte
		for i, c := range chunks {
			if i < len(chunks)-1 && len(c) != budget {
				t.Fatalf("non-final chunk %d has %d bytes, budget %d", i, len(c), budget)
			}
			got = append(got, c...)
		}
		if !bytes.Equal(got, doc) {
			t.Fatalf("reassembly mismatch: %d bytes in, %d out", len(doc), len(got))
		}
	})
}
