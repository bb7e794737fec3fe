package obs

import (
	"net"
	"net/http"
	"sync/atomic"
)

// PromContentType is the Content-Type of a Prometheus text exposition.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Page is one live /metrics page: the simulation goroutine renders an
// exposition and publishes the bytes; the HTTP handler only ever reads the
// last published value, so a scrape never touches live simulation state
// and the simulation stays deterministic and race-free.
type Page struct {
	blob atomic.Value // []byte
}

// Publish installs a freshly rendered exposition. The caller must not
// modify blob afterwards.
func (p *Page) Publish(blob []byte) { p.blob.Store(blob) }

// ServeHTTP writes the last published exposition (503 before the first).
func (p *Page) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	blob, _ := p.blob.Load().([]byte)
	if blob == nil {
		http.Error(w, "no metrics published yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", PromContentType)
	w.Write(blob)
}

// Serve binds addr and serves h for the life of the process, returning
// the bound address (useful with ":0").
func Serve(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go func() {
		_ = http.Serve(ln, h)
	}()
	return ln.Addr().String(), nil
}
