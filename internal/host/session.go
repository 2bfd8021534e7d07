package host

import "dxml/internal/transport"

// Session opens an in-process session against the registry. It runs
// the transport's own host loop with the registry as its router, so the
// hello is admitted, routed, gated and accounted by the code a TCP
// session goes through: an unknown digest refuses with
// transport.ErrUnknownDesign, an over-budget hello or stream with
// transport.ErrOverCapacity. Close the session to release its admission
// slot; Close returns once the slot is free.
func (r *Registry) Session(digest []byte, chunk int) (transport.Session, error) {
	s, err := transport.Local(transport.HostConfig{Router: r, Window: r.cfg.Window},
		transport.Config{Digest: digest, Chunk: chunk})
	if err != nil {
		// Returned as a nil interface, not a typed-nil *Conn.
		return nil, err
	}
	return s, nil
}
