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
