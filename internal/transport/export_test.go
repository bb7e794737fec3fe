package transport

// StreamWindowSum sums the windows of every outgoing stream the transport
// holds: the running sum WindowInFlight returns must always equal it.
func (t *Transport) StreamWindowSum() int64 {
	var n int64
	for _, s := range t.streamsOut {
		n += int64(s.window)
	}
	return n
}

// Encode builds the wire packet of h and payload in a buffer of its own.
func Encode(h *Header, payload []byte) []byte {
	return encodeInto(make([]byte, HeaderSize+h.extSize()+len(payload)), h, payload)
}
