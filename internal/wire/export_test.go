package wire

import (
	"bytes"
	"io"
)

// DecodeFast is the one-pass decoder alone: whether it takes data into v.
func DecodeFast(data []byte, v any) bool {
	p := planFor(v)
	return p != nil && p.decode(data, v)
}

// DecodeStream is encoding/json's strict decode, the one-pass decoder's
// oracle and the only author of decode errors.
func DecodeStream(r io.Reader, v any) error { return decodeStream(r, v) }

// ValidJSON is the one-pass decoder's value skipper on a whole text: one
// value, whitespace around it.
func ValidJSON(data []byte) bool {
	s := scanner{data: data}
	s.space()
	if !s.skipValue(0) {
		return false
	}
	s.space()
	return s.pos == len(data)
}

// OverwritePooledBody fills the whole capacity of the next pooled body
// buffer with c and returns it to the pool.
func OverwritePooledBody(c byte) {
	b := getBody()
	b.Write(bytes.Repeat([]byte{c}, b.Cap()))
	putBody(b)
}
