package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// These tests exercise the client against hand-rolled httptest handlers so
// its own error-envelope decoding is pinned directly, independent of the
// real server's behavior (which the end-to-end tests in internal/service
// already cover).

// TestDecodeAPIErrorEnvelope pins the typed error path: a JSON envelope
// round-trips to an *APIError carrying the HTTP status, the stable code,
// and the message, reachable through errors.As.
func TestDecodeAPIErrorEnvelope(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"code":"unknown_program","error":"no program prog:42"}`)
	}))
	defer srv.Close()

	_, err := New(srv.URL).Programs(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("got %T (%v), want *APIError", err, err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Code != "unknown_program" || apiErr.Msg != "no program prog:42" {
		t.Errorf("decoded %+v, want status=404 code=unknown_program msg=%q", apiErr, "no program prog:42")
	}
}

// TestDecodeAPIErrorNonJSON pins the degradation path: a body that is not
// the service's envelope (a proxy error page, a crash) still becomes an
// APIError with the status code and the raw text, not a JSON decode error.
func TestDecodeAPIErrorNonJSON(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprint(w, "<html>502 upstream sad</html>\n")
	}))
	defer srv.Close()

	_, err := New(srv.URL).Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("got %T (%v), want *APIError", err, err)
	}
	if apiErr.Status != http.StatusBadGateway || apiErr.Code != "" || apiErr.Msg != "<html>502 upstream sad</html>" {
		t.Errorf("decoded %+v, want status=502, no code, raw body as message", apiErr)
	}
}
