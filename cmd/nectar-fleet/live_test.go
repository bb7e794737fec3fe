package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/load"
	"repro/internal/sim"
)

// The endpoint routes: fleet progress at /metrics, one replica's page at
// /metrics/N (503 until it publishes, 404 out of range), SLO views at /slo.
func TestLiveFleetRoutes(t *testing.T) {
	lf := newLiveFleet(2, 10)
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		lf.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	lf.publish(0, load.Tick{Now: 3 * sim.Millisecond, Ops: 42}, []byte("nectar_x{replica=\"0\"} 1\n"))

	if w := get("/metrics/0"); w.Code != http.StatusOK || w.Body.String() != "nectar_x{replica=\"0\"} 1\n" {
		t.Errorf("/metrics/0: status %d body %q", w.Code, w.Body.String())
	}
	if w := get("/metrics/1"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("/metrics/1 before publishing: status %d, want 503", w.Code)
	}
	if w := get("/metrics/2"); w.Code != http.StatusNotFound {
		t.Errorf("/metrics/2 of 2 replicas: status %d, want 404", w.Code)
	}
	w := get("/metrics")
	for _, want := range []string{"nectar_fleet_replicas 2", `nectar_fleet_ops{replica="0",seed="10"} 42`} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("/metrics lacks %q:\n%s", want, w.Body.String())
		}
	}
	if w := get("/slo"); w.Code != http.StatusServiceUnavailable {
		t.Errorf("/slo with no SLO view published: status %d, want 503", w.Code)
	}
	lf.publishSLO(1, []byte("replica 1 ok\n"))
	if w := get("/slo/1"); w.Code != http.StatusOK || w.Body.String() != "replica 1 ok\n" {
		t.Errorf("/slo/1: status %d body %q", w.Code, w.Body.String())
	}
}
