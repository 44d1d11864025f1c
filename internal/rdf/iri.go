package rdf

import (
	"bytes"
	"strings"
)

// ResolveIRI resolves the IRI reference ref against the absolute IRI base
// as RFC 3986 §5.2.2 specifies, with the dot-segment removal of §5.2.4. It
// works on the strings as written: nothing is escaped, unescaped or
// case-folded, so an IRI may hold characters a URI may not. A ref with a
// scheme keeps it (the strict parser of §5.4.2).
func ResolveIRI(base, ref string) string {
	r := splitIRI(ref)
	if r.scheme == "" {
		b := splitIRI(base)
		r.scheme = b.scheme
		if r.authority == "" {
			r.authority = b.authority
			switch {
			case r.path == "":
				if r.query == "" {
					r.query = b.query
				}
				return r.scheme + r.authority + b.path + r.query + r.fragment
			case r.path[0] != '/' && b.authority != "" && b.path == "":
				r.path = "/" + r.path
			case r.path[0] != '/':
				r.path = b.path[:strings.LastIndexByte(b.path, '/')+1] + r.path
			}
		}
	}
	return r.scheme + r.authority + removeDotSegments(r.path) + r.query + r.fragment
}

// iriRef is an IRI reference split into the five components of RFC 3986
// Appendix B. Each optional component keeps its delimiter ("http:",
// "//host", "?q", "#f"), so "" means undefined and the components
// concatenate back into the reference (§5.3).
type iriRef struct {
	scheme, authority, path, query, fragment string
}

func splitIRI(s string) (r iriRef) {
	if i := strings.IndexAny(s, ":/?#"); i > 0 && s[i] == ':' {
		r.scheme, s = s[:i+1], s[i+1:]
	}
	if strings.HasPrefix(s, "//") {
		i := strings.IndexAny(s[2:], "/?#") + 2
		if i < 2 {
			i = len(s)
		}
		r.authority, s = s[:i], s[i:]
	}
	if i := strings.IndexByte(s, '#'); i >= 0 {
		r.fragment, s = s[i:], s[:i]
	}
	if i := strings.IndexByte(s, '?'); i >= 0 {
		r.query, s = s[i:], s[:i]
	}
	r.path = s
	return r
}

// removeDotSegments is the remove_dot_segments routine of RFC 3986 §5.2.4.
func removeDotSegments(in string) string {
	if !strings.Contains(in, ".") {
		return in
	}
	out := make([]byte, 0, len(in))
	pop := func() { // drop the output's last segment and the "/" before it
		out = out[:max(bytes.LastIndexByte(out, '/'), 0)]
	}
	for in != "" {
		switch {
		case strings.HasPrefix(in, "../"):
			in = in[3:]
		case strings.HasPrefix(in, "./"), strings.HasPrefix(in, "/./"):
			in = in[2:]
		case in == "/.":
			in = "/"
		case strings.HasPrefix(in, "/../"):
			in = in[3:]
			pop()
		case in == "/..":
			in = "/"
			pop()
		case in == "." || in == "..":
			in = ""
		default:
			i := strings.IndexByte(in[1:], '/') + 1
			if i == 0 {
				i = len(in)
			}
			out = append(out, in[:i]...)
			in = in[i:]
		}
	}
	return string(out)
}
