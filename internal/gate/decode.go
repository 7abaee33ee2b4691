package gate

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
)

// DecodeIngest decodes a POST /v1/ingest body exactly as json.Unmarshal
// into an IngestRequest does: same request, same error. The form
// json.Marshal writes for an IngestRequest is parsed directly, in one
// pass and without reflection; every other body, and every body the
// direct parser declines, goes to json.Unmarshal.
func DecodeIngest(body []byte) (IngestRequest, error) {
	if req, ok := decodeFast(body); ok {
		return req, nil
	}
	var req IngestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return IngestRequest{}, err
	}
	return req, nil
}

// minFrame is the shortest frame json.Marshal writes, so a frame list
// of n bytes holds at most n/len(minFrame) frames.
const minFrame = `{"dev":0,"seq":0,"value":0,"sent_ms":0,"device_ms":0,"arrive_ms":0,"attempt":0}`

// decodeFast parses exactly what json.Marshal writes for an
// IngestRequest: the keys in struct order, Frame's echo and fresh_ms
// only where present, frames as null or an array, and nothing after
// the object but whitespace. Each number is checked against the JSON
// grammar and then parsed by strconv at its field's width, as
// encoding/json parses it; a number out of range, a source that is not
// printable ASCII, or any other form reports false, and the caller
// falls back to json.Unmarshal, which then decodes or refuses it.
func decodeFast(body []byte) (IngestRequest, bool) {
	var req IngestRequest
	p := ingestParser{b: body}
	if !p.lit(`{"source":"`) || !p.source(&req.Source) || !p.lit(`,"batch":`) || !p.unsigned(&req.Batch) || !p.lit(`,"frames":`) {
		return IngestRequest{}, false
	}
	if !p.lit("null") {
		if !p.lit("[") {
			return IngestRequest{}, false
		}
		// Inside the list only frames open a brace, so the count is
		// exact for a body this parser accepts; the length bound keeps
		// a body of braces from sizing a huge slice.
		rest := body[p.i:]
		req.Frames = make([]Frame, 0, min(bytes.Count(rest, []byte{'{'}), len(rest)/len(minFrame)))
		for !p.lit("]") {
			if len(req.Frames) > 0 && !p.lit(",") {
				return IngestRequest{}, false
			}
			var f Frame
			if !p.frame(&f) {
				return IngestRequest{}, false
			}
			req.Frames = append(req.Frames, f)
		}
	}
	if !p.lit("}") {
		return IngestRequest{}, false
	}
	for _, c := range body[p.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return IngestRequest{}, false
		}
	}
	return req, true
}

// ingestParser is decodeFast's cursor over the body.
type ingestParser struct {
	b []byte
	i int
}

// lit consumes s if the body continues with it.
func (p *ingestParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// htmlUnescape undoes the only escapes json.Marshal writes inside a
// printable ASCII string: its HTML-safe forms of <, > and &.
var htmlUnescape = strings.NewReplacer("\\u003c", "<", "\\u003e", ">", "\\u0026", "&")

// source reads the rest of a string whose opening quote is consumed:
// printable ASCII, with no escapes but htmlUnescape's.
func (p *ingestParser) source(s *string) bool {
	escaped := false
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			*s = string(p.b[start:p.i])
			if escaped {
				*s = htmlUnescape.Replace(*s)
			}
			p.i++
			return true
		case c == '\\':
			e := p.b[p.i:min(p.i+6, len(p.b))]
			if string(e) != "\\u003c" && string(e) != "\\u003e" && string(e) != "\\u0026" {
				return false
			}
			escaped = true
			p.i += len(e) - 1
		case c < ' ' || c > '~':
			return false
		}
	}
	return false
}

// frame reads one object in Frame's field order.
func (p *ingestParser) frame(f *Frame) bool {
	var dev, value, attempt int64
	if !p.lit(`{"dev":`) || !p.integer(&dev, strconv.IntSize) ||
		!p.lit(`,"seq":`) || !p.integer(&f.Seq, 64) ||
		!p.lit(`,"value":`) || !p.integer(&value, 32) ||
		!p.lit(`,"sent_ms":`) || !p.float(&f.SentMs) ||
		!p.lit(`,"device_ms":`) || !p.integer(&f.DeviceMs, 64) ||
		!p.lit(`,"arrive_ms":`) || !p.float(&f.ArriveMs) ||
		!p.lit(`,"attempt":`) || !p.integer(&attempt, strconv.IntSize) {
		return false
	}
	f.Dev, f.Value, f.Attempt = int(dev), int32(value), int(attempt)
	f.Echo = p.lit(`,"echo":true`)
	if p.lit(`,"fresh_ms":`) && !p.float(&f.FreshMs) {
		return false
	}
	return p.lit("}")
}

// number consumes a JSON number, -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its text.
func (p *ingestParser) number() ([]byte, bool) {
	start := p.i
	p.skip('-')
	// A leading 0 stands alone; a digit after it fails the next token.
	if !p.skip('0') && !p.digits() {
		return nil, false
	}
	if p.skip('.') && !p.digits() {
		return nil, false
	}
	if p.skip('e') || p.skip('E') {
		if !p.skip('+') {
			p.skip('-')
		}
		if !p.digits() {
			return nil, false
		}
	}
	return p.b[start:p.i], true
}

// skip consumes c if it is next.
func (p *ingestParser) skip(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// digits consumes one or more decimal digits.
func (p *ingestParser) digits() bool {
	start := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i > start
}

// integer consumes a JSON number that strconv.ParseInt reads at bits
// wide, as encoding/json reads an int field of that width.
func (p *ingestParser) integer(v *int64, bits int) bool {
	s, ok := p.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(s), 10, bits)
	*v = n
	return err == nil
}

// unsigned consumes a JSON number that strconv.ParseUint reads, as
// encoding/json reads a uint64 field.
func (p *ingestParser) unsigned(v *uint64) bool {
	s, ok := p.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(string(s), 10, 64)
	*v = n
	return err == nil
}

// float consumes a JSON number that strconv.ParseFloat reads, as
// encoding/json reads a float64 field.
func (p *ingestParser) float(v *float64) bool {
	s, ok := p.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseFloat(string(s), 64)
	*v = n
	return err == nil
}
