package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestPageServesLastPublished(t *testing.T) {
	var p Page
	get := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		p.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
		return w
	}
	if w := get(); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("before the first publish: status %d, want 503", w.Code)
	}
	p.Publish([]byte("nectar_a 1\n"))
	p.Publish([]byte("nectar_a 2\n"))
	w := get()
	if w.Code != http.StatusOK || w.Body.String() != "nectar_a 2\n" || w.Header().Get("Content-Type") != PromContentType {
		t.Fatalf("status %d, type %q, body %q", w.Code, w.Header().Get("Content-Type"), w.Body.String())
	}
}

func TestServeBindsAndAnswers(t *testing.T) {
	var p Page
	p.Publish([]byte("nectar_up 1\n"))
	addr, err := Serve("127.0.0.1:0", &p)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); string(body) != "nectar_up 1\n" {
		t.Fatalf("body %q", body)
	}
	if _, err := Serve(addr, &p); err == nil {
		t.Fatal("binding an address already in use did not fail")
	}
}
