package webserver

import (
	"bytes"
	"testing"
)

// headerWords is the reference list of header field words, each matched
// with its separator.
var headerWords = [][]byte{
	[]byte("Host: "), []byte("Server: "), []byte("Content-Type: "),
	[]byte("Content-Length: "), []byte("User-Agent: "), []byte("Cache-Control: "),
	[]byte("Access-Control-Allow-Methods: "), []byte("Set-Cookie: "),
	[]byte("Accept: "), []byte("Location: "),
}

// containsHeaderField is the reference boundary rule: name occurs at the
// payload start or after a byte that cannot extend a field name.
func containsHeaderField(p, name []byte) bool {
	for off := 0; ; {
		j := bytes.Index(p[off:], name)
		if j < 0 {
			return false
		}
		k := off + j
		if k == 0 || !fieldNameByte(p[k-1]) {
			return true
		}
		off = k + 1
	}
}

// referenceClassify is classifyPayload written the direct way: every
// initial-line prefix tried, then one scan per header word.
func referenceClassify(p []byte) payloadKind {
	if len(p) == 0 {
		return payloadOpaque
	}
	for _, m := range methodWords {
		if bytes.HasPrefix(p, m) && bytes.Contains(p, httpVersionWord) {
			return payloadHTTPRequest
		}
	}
	for _, r := range responsePrefixes {
		if bytes.HasPrefix(p, r) {
			return payloadHTTPResponse
		}
	}
	for _, h := range headerWords {
		if containsHeaderField(p, h) {
			return payloadHTTPHeaderOnly
		}
	}
	return payloadOpaque
}

// FuzzClassifyPayload checks the one-pass matcher against the per-word
// reference on arbitrary payloads.
func FuzzClassifyPayload(f *testing.F) {
	for _, w := range headerWords {
		f.Add(w)
		f.Add(append([]byte("X-Forwarded-"), w...))
		f.Add(append([]byte("\r\n"), w...))
		f.Add(append([]byte("x\n"), w...))
		f.Add(append([]byte("\x00"), w[:len(w)-1]...))
	}
	for _, m := range methodWords {
		f.Add(append(m, "/ HTTP/1.1\r\n"...))
		f.Add(m)
	}
	for _, s := range []string{
		"", ": ", ": Host: x", "Host:: x", "X-Forwarded-Host: h\r\n",
		"HTTP/1.1 200 OK\r\n", "HTTP/1.0 ", "HTTP/2 200\r\nServer: x\r\n",
		"junkSet-Cookie: a=1\r\n", "content-type: text/html\r\n",
		"\r\nHost: a\r\n", "Host:\r\n", "Host :x", "a-Host: b",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if got, want := classifyPayload(p), referenceClassify(p); got != want {
			t.Fatalf("classifyPayload(%q) = %d, reference says %d", p, got, want)
		}
	})
}
