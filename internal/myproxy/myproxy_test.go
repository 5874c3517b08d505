package myproxy

import (
	"bufio"
	"crypto/tls"
	"io"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/ca"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
)

// env builds a site with an online CA behind an LDAP PAM stack and a
// running MyProxy server.
func env(t *testing.T) (*netsim.Network, *Server, string, *gsi.TrustStore, *pam.OTPAuthority) {
	t.Helper()
	signing, err := gsi.NewCA("/O=Grid/OU=siteA/CN=MyProxy CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	dir := pam.NewLDAPDirectory("dc=siteA")
	dir.AddEntry("alice", "s3cret")
	otp := pam.NewOTPAuthority()
	otp.Enroll("alice", []byte("token-seed"))
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	stack := pam.NewStack("myproxy", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}},
	)
	online := ca.New(signing, stack, "/O=Grid/OU=siteA")
	hostCred, err := signing.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=siteA/CN=myproxy-host", Lifetime: time.Hour, Host: true})
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.NewNetwork()
	srv := &Server{OnlineCA: online, HostCred: hostCred}
	addr, err := srv.ListenAndServe(nw.Host("siteA"), DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	trust := gsi.NewTrustStore()
	trust.AddCA(signing.Certificate())
	return nw, srv, addr.String(), trust, otp
}

func TestLogonIssuesShortLivedCert(t *testing.T) {
	nw, srv, addr, trust, _ := env(t)
	cred, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv("s3cret"),
		LogonOptions{Trust: trust, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Username embedded in the DN (§IV.A) — the whole point of GCMU.
	if cred.DN() != "/O=Grid/OU=siteA/CN=alice" {
		t.Fatalf("issued DN %q", cred.DN())
	}
	if cred.DN().LastCN() != "alice" {
		t.Fatal("username not the final CN")
	}
	if cred.Key == nil {
		t.Fatal("client credential missing locally generated key")
	}
	// Short-lived: expires within the requested hour (+ slack).
	if time.Until(cred.Cert.NotAfter) > 2*time.Hour {
		t.Fatalf("certificate not short-lived: %v", cred.Cert.NotAfter)
	}
	// Verifies against the site trust store.
	if _, err := trust.Verify(cred.FullChain(), time.Now()); err != nil {
		t.Fatal(err)
	}
	// Usable as a proxy issuer (the client makes a proxy for sessions).
	proxy, err := gsi.NewProxy(cred, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trust.Verify(proxy.FullChain(), time.Now()); err != nil {
		t.Fatal(err)
	}
	if srv.OnlineCA.Issued() != 1 {
		t.Fatalf("issued count %d", srv.OnlineCA.Issued())
	}
}

func TestLogonWrongPassword(t *testing.T) {
	nw, _, addr, trust, _ := env(t)
	_, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv("wrong"),
		LogonOptions{Trust: trust})
	if err == nil || !strings.Contains(err.Error(), "authentication failure") {
		t.Fatalf("want authentication failure, got %v", err)
	}
}

func TestLogonUnknownUser(t *testing.T) {
	nw, _, addr, trust, _ := env(t)
	if _, err := Logon(nw.Host("laptop"), addr, "mallory", pam.PasswordConv("x"),
		LogonOptions{Trust: trust}); err == nil {
		t.Fatal("unknown user logon accepted")
	}
}

func TestLogonExcessiveLifetimeRefused(t *testing.T) {
	nw, _, addr, trust, _ := env(t)
	_, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv("s3cret"),
		LogonOptions{Trust: trust, Lifetime: 1000 * time.Hour})
	if err == nil || !strings.Contains(err.Error(), "lifetime") {
		t.Fatalf("want lifetime error, got %v", err)
	}
}

func TestLogonBootstrapTrust(t *testing.T) {
	// -b mode: no trust store, accept the server cert on first use.
	nw, _, addr, _, _ := env(t)
	cred, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv("s3cret"), LogonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cred.DN().LastCN() != "alice" {
		t.Fatalf("DN %q", cred.DN())
	}
}

func TestLogonWithOTPStack(t *testing.T) {
	// Swap the PAM stack for OTP: the prompt tunnels over the protocol.
	nw, srv, addr, trust, otp := env(t)
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	srv.OnlineCA.Auth = pam.NewStack("myproxy", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.OTPModule{Authority: otp}},
	)
	code, err := otp.NextCode("alice")
	if err != nil {
		t.Fatal(err)
	}
	var sawSecretPrompt bool
	conv := func(prompt string, echo bool) (string, error) {
		if echo {
			sawSecretPrompt = true
		}
		return code, nil
	}
	cred, err := Logon(nw.Host("laptop"), addr, "alice", conv, LogonOptions{Trust: trust})
	if err != nil {
		t.Fatal(err)
	}
	if !sawSecretPrompt {
		t.Fatal("OTP prompt metadata lost in tunneling")
	}
	if cred.DN().LastCN() != "alice" {
		t.Fatalf("DN %q", cred.DN())
	}
	// The code is single-use: a replayed logon must fail.
	if _, err := Logon(nw.Host("laptop"), addr, "alice", conv, LogonOptions{Trust: trust}); err == nil {
		t.Fatal("OTP replay logon accepted")
	}
}

func TestOnlineCADirect(t *testing.T) {
	signing, _ := gsi.NewCA("/O=x/CN=CA", time.Hour)
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "u"})
	dir := pam.NewLDAPDirectory("dc=x")
	dir.AddEntry("u", "pw")
	stack := pam.NewStack("svc", accounts, pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})
	online := ca.New(signing, stack, "/O=x")
	cred, err := online.Logon("u", pam.PasswordConv("pw"), pubkeyOf(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cred.DN() != "/O=x/CN=u" {
		t.Fatalf("DN %q", cred.DN())
	}
	if _, err := online.Logon("u", pam.PasswordConv("bad"), pubkeyOf(t), 0); err == nil {
		t.Fatal("bad password accepted")
	}
	if _, err := online.Logon("u", pam.PasswordConv("pw"), pubkeyOf(t), -time.Hour); err == nil {
		t.Fatal("negative lifetime accepted")
	}
}

func pubkeyOf(t *testing.T) interface{} {
	t.Helper()
	cred, err := gsi.SelfSignedCredential("/CN=tmp", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return &cred.Key.PublicKey
}

// rawLogon opens a TLS session to the server and sends line, then
// returns the server's first reply line (or the read error).
func rawLogon(t *testing.T, nw *netsim.Network, addr string, trust *gsi.TrustStore, line string) (string, error) {
	t.Helper()
	raw, err := nw.Host("laptop").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	tc := tls.Client(raw, gsi.ClientTLSConfig(nil, trust))
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	go io.WriteString(tc, line) // an over-long line may never be read in full
	return readLine(bufio.NewReader(tc))
}

// TestLogonLifetimeOverflowRefused checks that a lifetime whose seconds
// overflow time.Duration is refused instead of wrapping to a short one
// (18446744074 s wraps to about 0.29 s).
func TestLogonLifetimeOverflowRefused(t *testing.T) {
	nw, _, addr, trust, _ := env(t)
	for _, secs := range []string{"18446744074", "9223372037", "99999999999999999999"} {
		reply, err := rawLogon(t, nw, addr, trust, "LOGON alice "+secs+"\n")
		if err != nil || reply != "ERR bad lifetime" {
			t.Errorf("LOGON with %s s: %q, %v; want ERR bad lifetime", secs, reply, err)
		}
	}
}

// TestLogonLineLengthCapped checks that the server stops reading a
// pre-authentication line at maxLineLen and hangs up rather than
// buffering it whole.
func TestLogonLineLengthCapped(t *testing.T) {
	nw, _, addr, trust, _ := env(t)
	reply, err := rawLogon(t, nw, addr, trust, "LOGON "+strings.Repeat("a", 2*maxLineLen)+" 60\n")
	if err == nil {
		t.Fatalf("over-long LOGON line answered %q, want the connection closed", reply)
	}
	reply, err = rawLogon(t, nw, addr, trust, "LOGON "+strings.Repeat("a", 1000)+" 60\n")
	if err != nil || !strings.HasPrefix(reply, "PROMPT ") {
		t.Fatalf("LOGON under the cap: %q, %v; want a PROMPT", reply, err)
	}
}
