package myproxy

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode"
)

// FuzzParseLogon throws arbitrary bytes at what the server reads before
// the client has authenticated: one bounded line, parsed as LOGON. An
// accepted request names a user without whitespace and a whole-second,
// non-negative lifetime, and its wire form parses back to the same
// request, so a lifetime that wraps time.Duration cannot slip through.
// The same line also goes through the RESPONSE and PUBKEY parsers.
func FuzzParseLogon(f *testing.F) {
	f.Add("LOGON alice 3600\n")
	f.Add("LOGON alice 0 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\r\n")
	f.Add("LOGON alice 18446744074\n")
	f.Add("LOGON alice 9223372036\n")
	f.Add("LOGON alice -1\n")
	f.Add("LOGON alice\n")
	f.Add("LOGON  alice\t60  x  y\n")
	f.Add("RESPONSE s3cret\n")
	f.Add("PUBKEY MFkwEwYHKoZIzj0CAQYIKoZIzj0DAQcDQgAE\n")
	f.Add(strings.Repeat("L", maxLineLen+1) + "\n")

	f.Fuzz(func(t *testing.T, data string) {
		line, err := readLine(bufio.NewReaderSize(strings.NewReader(data), 16))
		if err == nil && (len(line) > maxLineLen || strings.Contains(line, "\n")) {
			t.Fatalf("readLine returned %d bytes with a newline or past the cap", len(line))
		}
		if err != nil {
			line = data
		}
		if resp, err := parseResponse(line); err == nil && "RESPONSE "+resp != line {
			t.Fatalf("%q: RESPONSE text %q", line, resp)
		}
		parsePubkey(line)

		req, err := parseLogon(line)
		if err != nil {
			return
		}
		if req.user == "" || strings.ContainsFunc(req.user, unicode.IsSpace) {
			t.Fatalf("%q: user %q", line, req.user)
		}
		if req.lifetime < 0 || req.lifetime%time.Second != 0 {
			t.Fatalf("%q: lifetime %v", line, req.lifetime)
		}
		wire := fmt.Sprintf("LOGON %s %d", req.user, req.lifetime/time.Second)
		if req.traceparent != "" {
			wire += " " + req.traceparent
		}
		again, err := parseLogon(wire)
		if err != nil || again != req {
			t.Fatalf("%q: round trip %+v -> %q -> %+v, %v", line, req, wire, again, err)
		}
	})
}
