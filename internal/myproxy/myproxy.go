// Package myproxy implements the MyProxy logon protocol ([20] in the
// paper): a TLS service through which a user exchanges site credentials
// (username/password, OTP, ...) for a short-lived X.509 certificate issued
// by the site's Online CA. The client generates its key pair locally and
// sends only the public key; the PAM conversation is tunneled over the
// session so challenge-response backends work end to end.
//
// Wire protocol (CRLF-free, one line per message, over TLS):
//
//	C: LOGON <username> <lifetime-seconds> [traceparent]
//	S: PROMPT <0|1> <text>        (repeated; 0 = secret prompt)
//	C: RESPONSE <text>
//	S: ERR <message>              (terminal)  |  S: OK
//	C: PUBKEY <base64 PKIX DER>
//	S: CERT <base64 PEM bundle>   (certificate + chain, no key)
package myproxy

import (
	"bufio"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"time"

	"gridftp.dev/instant/internal/ca"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
	"gridftp.dev/instant/internal/pam"
)

// DefaultPort is the registered MyProxy port.
const DefaultPort = 7512

// Server serves MyProxy logons for one online CA.
type Server struct {
	// OnlineCA issues the certificates.
	OnlineCA *ca.OnlineCA
	// HostCred is the server's TLS identity.
	HostCred *gsi.Credential
	// Obs receives logon logs and metrics (nil disables).
	Obs *obs.Obs

	listener net.Listener
}

// ListenAndServe starts the server on host:port (0 auto-assigns).
func (s *Server) ListenAndServe(host *netsim.Host, port int) (net.Addr, error) {
	if s.OnlineCA == nil || s.HostCred == nil {
		return nil, errors.New("myproxy: server requires an online CA and host credential")
	}
	l, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	s.listener = l
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return l.Addr(), nil
}

// Close stops the server.
func (s *Server) Close() error {
	if s.listener != nil {
		return s.listener.Close()
	}
	return nil
}

func (s *Server) serve(raw net.Conn) {
	defer raw.Close()
	log := s.Obs.Logger().With("component", "myproxy", "remote", raw.RemoteAddr().String())
	reg := s.Obs.Registry()
	start := time.Now()
	tc := tls.Server(raw, gsi.ServerTLSConfigNoClientAuth(s.HostCred))
	raw.SetDeadline(time.Now().Add(time.Minute))
	if err := tc.Handshake(); err != nil {
		reg.Counter("myproxy.handshake_failures").Inc()
		log.Warn("handshake failed", "err", err)
		return
	}
	raw.SetDeadline(time.Time{})
	br := bufio.NewReader(tc)

	line, err := readLine(br)
	if err != nil {
		return
	}
	req, err := parseLogon(line)
	if err != nil {
		fmt.Fprintf(tc, "ERR %s\n", err)
		return
	}
	username := req.user
	// The optional traceparent is best-effort telemetry: a malformed value
	// degrades to a fresh local trace rather than failing the logon.
	sc, _ := obs.Extract(req.traceparent)
	span := s.Obs.Tracer().StartSpanContext("myproxy.logon", sc)
	span.SetAttr("user", username)
	defer span.End()

	// Tunnel the PAM conversation to the client.
	conv := func(prompt string, echo bool) (string, error) {
		e := "0"
		if echo {
			e = "1"
		}
		if _, err := fmt.Fprintf(tc, "PROMPT %s %s\n", e, strings.ReplaceAll(prompt, "\n", " ")); err != nil {
			return "", err
		}
		reply, err := readLine(br)
		if err != nil {
			return "", err
		}
		return parseResponse(reply)
	}

	// Authenticate before accepting a key: run PAM through the online CA
	// by doing a two-phase issue — authenticate first so failures are
	// reported before the client sends its key.
	acct, err := s.OnlineCA.Auth.Authenticate(username, conv)
	if err != nil {
		reg.Counter("myproxy.logons_denied").Inc()
		span.SetError(err)
		log.Warn("logon denied", "user", username, "err", err)
		s.Obs.EventLog().Append(eventlog.AuthFailure,
			traceEventKV(span, "component", "myproxy", "user", username, "err", err.Error())...)
		fmt.Fprintf(tc, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	if _, err := fmt.Fprintf(tc, "OK\n"); err != nil {
		return
	}

	line, err = readLine(br)
	if err != nil {
		return
	}
	pub, err := parsePubkey(line)
	if err != nil {
		fmt.Fprintf(tc, "ERR %s\n", err)
		return
	}
	cred, err := s.OnlineCA.IssuePreauthed(acct.Name, pub, req.lifetime)
	if err != nil {
		reg.Counter("myproxy.issue_failures").Inc()
		span.SetError(err)
		log.Warn("issue failed", "user", username, "err", err)
		fmt.Fprintf(tc, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	bundle, err := cred.EncodePEM()
	if err != nil {
		fmt.Fprintf(tc, "ERR encoding failure\n")
		return
	}
	fmt.Fprintf(tc, "CERT %s\n", base64.StdEncoding.EncodeToString(bundle))
	reg.Counter("myproxy.logons_total").Inc()
	reg.Histogram("myproxy.logon_seconds", obs.DefaultDurationBuckets).
		Observe(time.Since(start).Seconds())
	log.Info("logon issued", "user", username,
		"dn", string(cred.Identity()), "dur", time.Since(start).Round(time.Microsecond))
	s.Obs.EventLog().Append(eventlog.AuthSuccess,
		traceEventKV(span, "component", "myproxy", "user", username, "dn", string(cred.Identity()))...)
}

// traceEventKV appends the span's trace/span ids (when tracing is active)
// so MyProxy events cross-reference with the distributed trace.
func traceEventKV(span *obs.Span, kv ...any) []any {
	if span != nil {
		kv = append(kv, "trace", span.TraceID.String(), "span", span.SpanID.String())
	}
	return kv
}

// maxLineLen bounds one protocol line. The longest legitimate one, the
// CERT bundle, is a few KiB; the server reads LOGON before the client has
// authenticated, so an unbounded read would let anyone hold its memory.
const maxLineLen = 64 << 10

var errLineTooLong = errors.New("myproxy: protocol line too long")

// readLine reads one newline-terminated line of at most maxLineLen bytes
// and strips the line ending.
func readLine(br *bufio.Reader) (string, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if len(line)+len(chunk) > maxLineLen {
			return "", errLineTooLong
		}
		line = append(line, chunk...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return "", err
		}
		return strings.TrimRight(string(line), "\r\n"), nil
	}
}

// logonRequest is a parsed LOGON line.
type logonRequest struct {
	user     string
	lifetime time.Duration
	// traceparent is the optional fourth field ("" when absent).
	traceparent string
}

// maxLifetimeSeconds is the longest lifetime a time.Duration holds.
const maxLifetimeSeconds = math.MaxInt64 / int64(time.Second)

// parseLogon parses "LOGON <user> <lifetime-seconds> [traceparent]". Its
// errors are the text of the server's ERR reply.
func parseLogon(line string) (logonRequest, error) {
	fields := strings.Fields(line)
	if (len(fields) != 3 && len(fields) != 4) || fields[0] != "LOGON" {
		return logonRequest{}, errors.New("expected LOGON <user> <lifetime>")
	}
	seconds, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || seconds < 0 || seconds > maxLifetimeSeconds {
		return logonRequest{}, errors.New("bad lifetime")
	}
	req := logonRequest{user: fields[1], lifetime: time.Duration(seconds) * time.Second}
	if len(fields) == 4 {
		req.traceparent = fields[3]
	}
	return req, nil
}

// parseResponse parses "RESPONSE <text>", the client's answer to a PROMPT.
func parseResponse(line string) (string, error) {
	resp, ok := strings.CutPrefix(line, "RESPONSE ")
	if !ok {
		return "", fmt.Errorf("myproxy: expected RESPONSE, got %q", line)
	}
	return resp, nil
}

// parsePubkey parses "PUBKEY <base64 PKIX DER>". Its errors are the text
// of the server's ERR reply.
func parsePubkey(line string) (crypto.PublicKey, error) {
	keyB64, ok := strings.CutPrefix(line, "PUBKEY ")
	if !ok {
		return nil, errors.New("expected PUBKEY")
	}
	keyDER, err := base64.StdEncoding.DecodeString(keyB64)
	if err != nil {
		return nil, errors.New("bad key encoding")
	}
	pub, err := x509.ParsePKIXPublicKey(keyDER)
	if err != nil {
		return nil, errors.New("unparsable public key")
	}
	return pub, nil
}

// LogonOptions configure a client logon.
type LogonOptions struct {
	// Lifetime requested for the certificate (server default if zero).
	Lifetime time.Duration
	// Trust validates the MyProxy server's certificate ("-b" bootstraps
	// trust on first use when nil — see Bootstrap).
	Trust *gsi.TrustStore
	// Trace, when valid, rides on the LOGON request so the server's logon
	// span joins the caller's distributed trace.
	Trace obs.SpanContext
}

// Logon is the myproxy-logon client: it authenticates to the server with
// the PAM conversation conv and returns a fresh short-lived credential
// whose private key was generated locally.
func Logon(host *netsim.Host, addr, username string, conv pam.Conversation, opts LogonOptions) (*gsi.Credential, error) {
	raw, err := host.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("myproxy: dial %s: %w", addr, err)
	}
	defer raw.Close()

	cfg := &tls.Config{MinVersion: tls.VersionTLS12}
	if opts.Trust != nil {
		cfg = gsi.ClientTLSConfig(nil, opts.Trust)
	} else {
		// -b / bootstrap mode: accept the server's certificate on first
		// use (the GCMU client install does this, then pins the CA).
		cfg.InsecureSkipVerify = true
	}
	tc := tls.Client(raw, cfg)
	raw.SetDeadline(time.Now().Add(time.Minute))
	if err := tc.Handshake(); err != nil {
		return nil, fmt.Errorf("myproxy: handshake: %w", err)
	}
	raw.SetDeadline(time.Time{})
	br := bufio.NewReader(tc)

	req := fmt.Sprintf("LOGON %s %d", username, int(opts.Lifetime/time.Second))
	if opts.Trace.Valid() {
		req += " " + obs.Inject(opts.Trace)
	}
	if _, err := fmt.Fprintf(tc, "%s\n", req); err != nil {
		return nil, err
	}
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, fmt.Errorf("myproxy: %w", err)
		}
		switch {
		case strings.HasPrefix(line, "PROMPT "):
			rest := strings.TrimPrefix(line, "PROMPT ")
			echoStr, prompt, _ := strings.Cut(rest, " ")
			resp, err := conv(prompt, echoStr == "1")
			if err != nil {
				return nil, err
			}
			if _, err := fmt.Fprintf(tc, "RESPONSE %s\n", resp); err != nil {
				return nil, err
			}
		case line == "OK":
			return finishLogon(tc, br)
		case strings.HasPrefix(line, "ERR "):
			return nil, fmt.Errorf("myproxy: %s", strings.TrimPrefix(line, "ERR "))
		default:
			return nil, fmt.Errorf("myproxy: unexpected server message %q", line)
		}
	}
}

func finishLogon(tc *tls.Conn, br *bufio.Reader) (*gsi.Credential, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(tc, "PUBKEY %s\n", base64.StdEncoding.EncodeToString(pubDER)); err != nil {
		return nil, err
	}
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(line, "ERR ") {
		return nil, fmt.Errorf("myproxy: %s", strings.TrimPrefix(line, "ERR "))
	}
	certB64, ok := strings.CutPrefix(line, "CERT ")
	if !ok {
		return nil, fmt.Errorf("myproxy: unexpected server message %q", line)
	}
	bundle, err := base64.StdEncoding.DecodeString(certB64)
	if err != nil {
		return nil, err
	}
	cred, err := gsi.DecodePEM(bundle)
	if err != nil {
		return nil, err
	}
	cred.Key = key
	return cred, nil
}
