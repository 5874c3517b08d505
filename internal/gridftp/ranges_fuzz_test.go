package gridftp

import (
	"slices"
	"testing"
)

// FuzzParseRanges throws arbitrary restart-marker text at the range
// parser. Markers are untrusted remote input: a client's REST line seeds
// which ranges a server skips, and a server's 111 replies seed a client's
// retry. Accepted ranges must be well-formed, survive a render/parse
// round trip in normalized form, and leave a complement that stays inside
// the file and never overlaps what was received.
func FuzzParseRanges(f *testing.F) {
	f.Add("0-100", int64(100))
	f.Add("0-100,200-300", int64(250))
	f.Add(" 20-30 , 0-10,5-25", int64(64))
	f.Add("7-7,3-3", int64(5))
	f.Add("10-5", int64(10))
	f.Add("-1-5", int64(10))
	f.Add("+5-9", int64(10))
	f.Add("0-9223372036854775807", int64(9223372036854775807))
	f.Add("1-,2", int64(0))
	f.Add("", int64(1))

	f.Fuzz(func(t *testing.T, marker string, size int64) {
		rs, err := ParseRanges(marker)
		if err != nil {
			return
		}
		for _, r := range rs {
			if r.Start < 0 || r.End < r.Start {
				t.Fatalf("%q: accepted range %v", marker, r)
			}
		}
		set := FromRanges(rs)
		norm := set.Ranges()
		again, err := ParseRanges(set.Marker())
		if err != nil {
			t.Fatalf("%q: rendered marker %q does not parse: %v", marker, set.Marker(), err)
		}
		if !slices.Equal(norm, again) {
			t.Fatalf("%q: round trip %v, want %v", marker, again, norm)
		}
		// FromRanges must build what adding the ranges one by one builds.
		added := NewRangeSet()
		for _, r := range rs {
			added.Add(r.Start, r.End)
		}
		if got := added.Ranges(); !slices.Equal(got, norm) {
			t.Fatalf("%q: FromRanges %v, Add %v", marker, norm, got)
		}
		if size < 0 {
			return
		}
		for _, m := range set.Missing(size) {
			if m.Start < 0 || m.End > size || m.Start >= m.End {
				t.Fatalf("%q: missing range %v outside [0, %d)", marker, m, size)
			}
			for _, r := range norm {
				if m.Start < r.End && r.Start < m.End {
					t.Fatalf("%q: missing range %v overlaps received %v", marker, m, r)
				}
			}
		}
	})
}
