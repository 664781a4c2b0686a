package service

import (
	"fmt"
	"net/http"
)

// Error codes carried by the API error envelope's "code" field. They are
// stable wire values: clients branch on them (and on APIError.Status) rather
// than parsing message text.
const (
	CodeBadRequest = "bad_request" // malformed body or invalid spec
	CodeTooLarge   = "too_large"   // batch-sync frame exceeds MaxBatch
	CodeDraining   = "draining"    // server is shutting down; retry elsewhere
	CodeTimeout    = "timeout"     // request exceeded its budget
	CodeInternal   = "internal"    // everything else

	// CodeUnknownProgram marks a spec naming a prog:<sha256> reference the
	// daemon has not seen, on a 404. It is curable: upload the program
	// (POST /v1/programs) and retry — the RemoteRunner does exactly that,
	// transparently.
	CodeUnknownProgram = "unknown_program"
)

// codeForStatus derives the error code from the HTTP status the handlers
// already chose — one mapping, so the envelope can never disagree with the
// status line.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case http.StatusServiceUnavailable:
		return CodeDraining
	case http.StatusGatewayTimeout:
		return CodeTimeout
	default:
		return CodeInternal
	}
}

// APIError is a non-2xx service response: the HTTP status, a stable
// machine-readable code, and the human-readable message from the error
// envelope. The server's apiError writes it, the typed client's do()
// returns it from every call, and RemoteRunner surfaces it unwrapped — so
// errors.As(err, &apiErr) works at any consumer layer.
type APIError struct {
	Status int    `json:"-"`
	Code   string `json:"code,omitempty"`
	Msg    string `json:"error"`
}

func (e *APIError) Error() string {
	if e.Code == "" {
		return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Msg)
	}
	return fmt.Sprintf("service: HTTP %d (%s): %s", e.Status, e.Code, e.Msg)
}
