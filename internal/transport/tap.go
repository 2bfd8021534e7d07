package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// TapDir is the direction of a tapped frame relative to the tapping
// process: TapOut frames left it, TapIn frames arrived.
type TapDir uint8

const (
	TapOut TapDir = iota
	TapIn
)

func (d TapDir) String() string {
	if d == TapIn {
		return "in"
	}
	return "out"
}

// Tap observes every frame a session encodes or decodes, as raw wire
// bytes. An outgoing frame is tapped once encoded, before its write, so
// a tap never lags what the peer can already have seen. It is the
// flight-recorder seam: a nil tap costs the hot paths one nil check and
// nothing else — the same discipline as a nil obs.Collector.
//
// head and tail together are the exact bytes on the wire (tail is
// non-empty only when the frame was assembled or decoded in two parts:
// the vectored chunk write's header+payload, or the reader's
// header+payload split). Both slices alias reused codec buffers and are
// valid only for the duration of the call — an implementation that
// retains the frame must copy. sess is the session's trace ID (zero
// before the hello established one). Implementations must be safe for
// concurrent use: one session taps from its read and write goroutines
// at once, and a host shares one tap across every session.
type Tap interface {
	TapFrame(dir TapDir, sess uint64, head, tail []byte)
}

// frameTypeNames maps wire frame types to the stable names DecodeFrame
// reports and `dxml inspect` prints.
var frameTypeNames = [frameTypeEnd]string{
	frameInvalid:       "invalid",
	frameHello:         "hello",
	frameWelcome:       "welcome",
	frameError:         "error",
	frameVerdictReq:    "verdict_req",
	frameVerdict:       "verdict",
	frameOpen:          "open",
	frameBegin:         "begin",
	frameChunk:         "chunk",
	frameAck:           "ack",
	frameEnd:           "end",
	frameReject:        "reject",
	frameStreamErr:     "stream_err",
	frameVerdictCancel: "verdict_cancel",
	frameSubscribe:     "subscribe",
	frameSubscribed:    "subscribed",
	frameEdit:          "edit",
	frameEditAck:       "edit_ack",
	frameVerdictUpdate: "verdict_update",
	framePing:          "ping",
	framePong:          "pong",
	frameResume:        "resume",
	frameRefuse:        "refuse",
}

// FrameTypeName names a wire frame-type byte ("chunk", "ack", ...);
// unknown types format as "type(N)".
func FrameTypeName(kind uint8) string {
	if int(kind) < len(frameTypeNames) && frameTypeNames[kind] != "" {
		return frameTypeNames[kind]
	}
	return fmt.Sprintf("type(%d)", kind)
}

// FrameInfo is one wire frame decoded for inspection: the stable type
// name plus every field the frame carries (unused fields are zero).
// Data aliases the input buffer. WireLen is the frame's full on-wire
// length (4-byte prefix included), which may exceed len(input) when the
// capture truncated the frame under a per-frame cap — then Truncated is
// set and only the header fields are populated.
type FrameInfo struct {
	Type      string // stable name ("hello", "chunk", ...)
	Kind      uint8  // raw frame-type byte
	Stream    uint32 // stream / request id (chunk budget for hello)
	Size      uint64
	Ver       uint64
	Win       uint32
	Flag      byte
	Str       string
	Data      []byte
	WireLen   int // full frame length on the wire, 4-byte prefix included
	Truncated bool
}

// streamIDFirst reports whether t's fixed payload begins with the
// 4-byte stream/request id (every type except the session-level hello,
// welcome, error, and refuse frames).
func streamIDFirst(t frameType) bool {
	switch t {
	case frameHello, frameWelcome, frameError, frameRefuse:
		return false
	}
	return true
}

// DecodeFrame decodes one frame's wire bytes (as a Tap observed them:
// length prefix, type byte, payload) for offline inspection. A complete
// frame decodes through the same reader the live wire (and the codec
// fuzzer) uses; a frame cut short by a capture's per-frame cap yields a
// Truncated FrameInfo with the type and — when enough bytes survive —
// the stream id. Garbage errors out; it never panics.
func DecodeFrame(wire []byte) (FrameInfo, error) {
	if len(wire) < headerSize {
		return FrameInfo{}, fmt.Errorf("transport: %d bytes is too short for a frame header", len(wire))
	}
	length := binary.BigEndian.Uint32(wire[:4])
	if length == 0 {
		return FrameInfo{}, codecErrf("transport: empty frame (missing type byte)")
	}
	if length-1 > maxFramePayload {
		return FrameInfo{}, codecErrf("transport: frame of %d bytes exceeds the %d-byte limit", length-1, maxFramePayload)
	}
	total := 4 + int(length)
	if len(wire) < total {
		// Truncated by the capture cap: report what the surviving prefix
		// pins down.
		t := frameType(wire[4])
		if t == frameInvalid || t >= frameTypeEnd {
			return FrameInfo{}, codecErrf("transport: unknown frame type %d", wire[4])
		}
		info := FrameInfo{Type: FrameTypeName(wire[4]), Kind: wire[4], WireLen: total, Truncated: true}
		if streamIDFirst(t) && len(wire) >= headerSize+4 {
			info.Stream = binary.BigEndian.Uint32(wire[headerSize : headerSize+4])
		}
		return info, nil
	}
	fr := newFrameReader(bytes.NewReader(wire[:total]))
	f, err := fr.read()
	if err != nil {
		return FrameInfo{}, err
	}
	return FrameInfo{
		Type: FrameTypeName(byte(f.typ)), Kind: byte(f.typ),
		Stream: f.id, Size: f.size, Ver: f.ver, Win: f.win, Flag: f.flag,
		Str: f.str, Data: f.data, WireLen: total,
	}, nil
}
