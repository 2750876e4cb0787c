package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the daemon's connection limits: request
// headers and idle keep-alive connections are bounded, while neither the
// whole-request read nor the response write is — a write deadline would
// cut off the NDJSON progress streams, which stay open for a whole job.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	hs := newHTTPServer(h)
	if hs.Handler != h {
		t.Fatal("server does not serve the given handler")
	}
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v (> 0)", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || idleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v (> 0)", hs.IdleTimeout, idleTimeout)
	}
	if hs.WriteTimeout != 0 || hs.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, ReadTimeout = %v; both must stay 0 for streaming responses",
			hs.WriteTimeout, hs.ReadTimeout)
	}
}
