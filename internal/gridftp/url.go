package gridftp

import (
	"fmt"
	"strings"
)

// URL is a parsed GridFTP-world transfer URL: gsiftp://host[:port]/path,
// sshftp://host[:port]/path (GridFTP-Lite), or file:/path.
type URL struct {
	// Scheme is "gsiftp", "sshftp", or "file".
	Scheme string
	// Host is "host:port" (empty for file URLs); the default control port
	// is filled in when absent.
	Host string
	// Path is the absolute path.
	Path string
}

// IsLocal reports a file: URL.
func (u URL) IsLocal() bool { return u.Scheme == "file" }

// String renders the URL.
func (u URL) String() string {
	if u.IsLocal() {
		if strings.HasPrefix(u.Path, "//") {
			// "file:" + "//x" would read back as the file:// form, "/x".
			return "file://" + u.Path
		}
		return "file:" + u.Path
	}
	return fmt.Sprintf("%s://%s%s", u.Scheme, u.Host, u.Path)
}

// ParseURL parses the URL forms globus-url-copy accepts.
func ParseURL(s string) (URL, error) {
	switch {
	case strings.HasPrefix(s, "file://"):
		p := strings.TrimPrefix(s, "file://")
		if !strings.HasPrefix(p, "/") {
			p = "/" + p
		}
		return URL{Scheme: "file", Path: p}, nil
	case strings.HasPrefix(s, "file:"):
		p := strings.TrimPrefix(s, "file:")
		if !strings.HasPrefix(p, "/") {
			return URL{}, fmt.Errorf("gridftp: file URL %q must carry an absolute path", s)
		}
		return URL{Scheme: "file", Path: p}, nil
	}
	scheme, rest, ok := strings.Cut(s, "://")
	if !ok {
		return URL{}, fmt.Errorf("gridftp: unparsable URL %q", s)
	}
	scheme = strings.ToLower(scheme)
	if scheme != "gsiftp" && scheme != "sshftp" {
		return URL{}, fmt.Errorf("gridftp: unsupported scheme %q", scheme)
	}
	host, path, _ := strings.Cut(rest, "/")
	if host == "" {
		return URL{}, fmt.Errorf("gridftp: URL %q has no host", s)
	}
	if !strings.Contains(host, ":") {
		port := DefaultPort
		if scheme == "sshftp" {
			port = 22
		}
		host = fmt.Sprintf("%s:%d", host, port)
	}
	return URL{Scheme: scheme, Host: host, Path: "/" + path}, nil
}
