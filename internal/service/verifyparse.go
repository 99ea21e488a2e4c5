package service

// A hand-rolled parser for the restricted request shape the verify core
// accepts, on /v1/verify and per /v1/verify/batch line: one flat JSON
// object whose keys are the verify-request fields, with string or
// array-of-string values. encoding/json spends more time on a 1.5 KiB
// chain_pem line than the rest of the warm pipeline put together (a
// validity pre-scan plus a second decoding scan): on a 2-vCPU Xeon VM,
// forcing the fallback moves BenchmarkVerifyBatch from about 0.85 to
// 1.4 µs and from 0.19 to 3.1 allocations per verdict. The fast path makes
// one pass and slices field values straight out of the line buffer.
//
// Correctness never depends on this parser: fastParseLine answers false for
// ANYTHING outside the plain shape — unknown keys, nested values, escape
// sequences in short strings, control or non-ASCII bytes in strings,
// trailing data — and the caller falls back to encoding/json, which
// remains the arbiter of validity and of error messages. FuzzVerifyLine
// holds it to that: whatever it accepts, encoding/json accepts and
// decodes to the same fields.

import "unicode/utf8"

// lineFields is the decoded form of one request. All slices point into
// scratch-owned memory (the line buffer or scratch); nothing escapes a
// request's processing except through explicit copies.
type lineFields struct {
	chainPEM []byte   // unescaped PEM text (scratch-backed when escaped)
	chainDER [][]byte // base64 DER segments, sliced from the line
	stores   [][]byte // store refs, sliced from the line
	ua       []byte
	at       []byte
	purpose  []byte
	dnsName  []byte
}

func (f *lineFields) reset() {
	f.chainPEM, f.ua, f.at, f.purpose, f.dnsName = nil, nil, nil, nil, nil
	f.chainDER = f.chainDER[:0]
	f.stores = f.stores[:0]
}

// plainByte reports whether c may stand for itself inside a string the
// fast path accepts: printable ASCII. encoding/json rejects raw control
// characters and replaces invalid UTF-8, so those (and, for simplicity,
// all non-ASCII) are left to it.
func plainByte(c byte) bool { return c >= 0x20 && c < utf8.RuneSelf }

func jsonSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && jsonSpace(b[i]) {
		i++
	}
	return i
}

// fastParseLine decodes line into f. A false return means "shape too rich
// for me", not "invalid" — the caller must re-decode with encoding/json.
func fastParseLine(line []byte, f *lineFields, pemBuf *[]byte) bool {
	f.reset()
	i := skipSpace(line, 0)
	if i >= len(line) || line[i] != '{' {
		return false
	}
	i = skipSpace(line, i+1)
	if i < len(line) && line[i] == '}' {
		return skipSpace(line, i+1) == len(line)
	}
	for {
		if i >= len(line) || line[i] != '"' {
			return false
		}
		kStart := i + 1
		j := kStart
		for j < len(line) && line[j] != '"' {
			if line[j] == '\\' {
				return false
			}
			j++
		}
		if j >= len(line) {
			return false
		}
		key := line[kStart:j]
		i = skipSpace(line, j+1)
		if i >= len(line) || line[i] != ':' {
			return false
		}
		i = skipSpace(line, i+1)
		var ok bool
		switch string(key) {
		case "chain_pem":
			f.chainPEM, i, ok = readString(line, i, pemBuf)
		case "chain_der":
			f.chainDER, i, ok = readStringArray(line, i, f.chainDER[:0])
		case "stores":
			f.stores, i, ok = readStringArray(line, i, f.stores[:0])
		case "user_agent":
			f.ua, i, ok = readPlainString(line, i)
		case "at":
			f.at, i, ok = readPlainString(line, i)
		case "purpose":
			f.purpose, i, ok = readPlainString(line, i)
		case "dns_name":
			f.dnsName, i, ok = readPlainString(line, i)
		default:
			return false
		}
		if !ok {
			return false
		}
		i = skipSpace(line, i)
		if i >= len(line) {
			return false
		}
		switch line[i] {
		case ',':
			i = skipSpace(line, i+1)
		case '}':
			return skipSpace(line, i+1) == len(line)
		default:
			return false
		}
	}
}

// readPlainString reads a JSON string that contains no escape sequences,
// returning a view into b. Escapes (or a non-string value) answer !ok.
func readPlainString(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	start := i + 1
	for j := start; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[start:j], j + 1, true
		case c == '\\' || !plainByte(c):
			return nil, i, false
		}
	}
	return nil, i, false
}

// readString reads a JSON string, unescaping into *buf only when the value
// actually contains escapes (chain_pem always does: its newlines arrive as
// \n). Unsupported escapes answer !ok and force the encoding/json fallback.
func readString(b []byte, i int, buf *[]byte) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	start := i + 1
	j := start
	for j < len(b) && b[j] != '"' && b[j] != '\\' {
		if !plainByte(b[j]) {
			return nil, i, false
		}
		j++
	}
	if j >= len(b) {
		return nil, i, false
	}
	if b[j] == '"' { // no escapes: zero-copy view
		return b[start:j], j + 1, true
	}
	out := (*buf)[:0]
	out = append(out, b[start:j]...)
	for j < len(b) {
		switch b[j] {
		case '"':
			*buf = out
			return out, j + 1, true
		case '\\':
			j++
			if j >= len(b) {
				return nil, i, false
			}
			switch b[j] {
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case '"', '\\', '/':
				out = append(out, b[j])
			default:
				// \uXXXX and the rare short escapes: encoding/json's job.
				return nil, i, false
			}
			j++
		default:
			k := j
			for k < len(b) && b[k] != '"' && b[k] != '\\' {
				if !plainByte(b[k]) {
					return nil, i, false
				}
				k++
			}
			out = append(out, b[j:k]...)
			j = k
		}
	}
	return nil, i, false
}

// readStringArray reads an array of escape-free strings as views into b.
func readStringArray(b []byte, i int, dst [][]byte) (elems [][]byte, next int, ok bool) {
	if i >= len(b) || b[i] != '[' {
		return nil, i, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return dst, i + 1, true
	}
	for {
		var s []byte
		s, i, ok = readPlainString(b, i)
		if !ok {
			return nil, i, false
		}
		dst = append(dst, s)
		i = skipSpace(b, i)
		if i >= len(b) {
			return nil, i, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return dst, i + 1, true
		default:
			return nil, i, false
		}
	}
}
