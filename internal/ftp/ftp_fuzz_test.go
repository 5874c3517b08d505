package ftp

import (
	"strings"
	"testing"
)

// FuzzParseCommand throws arbitrary control-channel lines at the command
// parser, the first thing a server does with untrusted input. An accepted
// command must have a non-empty verb that is the line's first field
// upper-cased letter for letter (no non-ASCII letter may fold into an
// ASCII verb), and its wire form must parse back to the same command.
func FuzzParseCommand(f *testing.F) {
	f.Add("retr /path with spaces\r\n")
	f.Add("NOOP")
	f.Add("SITE TASK task-1")
	f.Add("OPTS RETR Parallelism=4,4,4;")
	f.Add(" leading-space")
	f.Add("")
	f.Add("\r\n")
	f.Add("123 x")
	f.Add("ſtor /x")
	f.Add("STOR a\r\nRETR b")
	f.Add("DCSC P " + strings.Repeat("QUJD", 64))

	f.Fuzz(func(t *testing.T, line string) {
		c, err := ParseCommand(line)
		if err != nil {
			return
		}
		raw, _, _ := strings.Cut(strings.TrimRight(line, "\r\n"), " ")
		if c.Name == "" || len(c.Name) != len(raw) || !strings.EqualFold(c.Name, raw) {
			t.Fatalf("%q: verb %q is not the upper-cased first field %q", line, c.Name, raw)
		}
		for _, r := range c.Name {
			if r < 'A' || r > 'Z' {
				t.Fatalf("%q: verb %q is not upper-case ASCII", line, c.Name)
			}
		}
		again, err := ParseCommand(c.String())
		if err != nil {
			t.Fatalf("%q: wire form %q does not parse: %v", line, c.String(), err)
		}
		if again != c {
			t.Fatalf("%q: round trip %+v -> %q -> %+v", line, c, c.String(), again)
		}
	})
}
