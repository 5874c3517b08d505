package gridftp

import (
	"strings"
	"testing"
)

// FuzzParseURL throws arbitrary text at the transfer-URL parser that
// globus-url-copy feeds its command-line arguments through. An accepted
// URL has a known scheme, an absolute path and, for remote schemes, a
// host with a port; its String form must parse back to the same URL.
func FuzzParseURL(f *testing.F) {
	f.Add("gsiftp://siteA/data/x.bin")
	f.Add("gsiftp://siteA:3000/x")
	f.Add("GSIFTP://siteA//double")
	f.Add("sshftp://siteB/y")
	f.Add("file:/tmp/z")
	f.Add("file:///tmp/z")
	f.Add("file://relative")
	f.Add("file:////net/share")
	f.Add("file:relative")
	f.Add("gsiftp:///nohost")
	f.Add("http://x/y")
	f.Add("")

	f.Fuzz(func(t *testing.T, s string) {
		u, err := ParseURL(s)
		if err != nil {
			return
		}
		if !strings.HasPrefix(u.Path, "/") {
			t.Fatalf("%q: path %q is not absolute", s, u.Path)
		}
		switch u.Scheme {
		case "file":
			if u.Host != "" {
				t.Fatalf("%q: file URL with host %q", s, u.Host)
			}
		case "gsiftp", "sshftp":
			if !strings.Contains(u.Host, ":") {
				t.Fatalf("%q: host %q has no port", s, u.Host)
			}
		default:
			t.Fatalf("%q: accepted scheme %q", s, u.Scheme)
		}
		again, err := ParseURL(u.String())
		if err != nil {
			t.Fatalf("%q: String form %q does not parse: %v", s, u.String(), err)
		}
		if again != u {
			t.Fatalf("%q: round trip %+v -> %q -> %+v", s, u, u.String(), again)
		}
	})
}
