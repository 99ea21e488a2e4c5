// Package plist implements the subset of Apple's XML property-list format
// needed to express keychain trust settings: dict, array, string, integer,
// real, boolean, date and data values. It is a standalone substrate so the
// Apple root-store codec can read and write trust-settings documents
// without any platform dependency.
package plist

import (
	"bytes"
	"encoding/base64"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Value is a plist value: one of
// map[string]Value, []Value, string, int64, float64, bool, time.Time, []byte.
type Value any

// Dict is the plist dictionary type.
type Dict = map[string]Value

// Array is the plist array type.
type Array = []Value

const (
	header = xml.Header +
		"<!DOCTYPE plist PUBLIC \"-//Apple//DTD PLIST 1.0//EN\" \"http://www.apple.com/DTDs/PropertyList-1.0.dtd\">\n"
	dateLayout = "2006-01-02T15:04:05Z"
)

// Marshal renders a value as a complete XML plist document.
func Marshal(v Value) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(header)
	buf.WriteString("<plist version=\"1.0\">\n")
	if err := encodeValue(&buf, v, 0); err != nil {
		return nil, err
	}
	buf.WriteString("</plist>\n")
	return buf.Bytes(), nil
}

func indent(buf *bytes.Buffer, depth int) {
	for i := 0; i < depth; i++ {
		buf.WriteByte('\t')
	}
}

func encodeValue(buf *bytes.Buffer, v Value, depth int) error {
	indent(buf, depth)
	switch x := v.(type) {
	case Dict:
		if len(x) == 0 {
			buf.WriteString("<dict/>\n")
			return nil
		}
		buf.WriteString("<dict>\n")
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			indent(buf, depth+1)
			ek, err := escape(k)
			if err != nil {
				return err
			}
			fmt.Fprintf(buf, "<key>%s</key>\n", ek)
			if err := encodeValue(buf, x[k], depth+1); err != nil {
				return err
			}
		}
		indent(buf, depth)
		buf.WriteString("</dict>\n")
	case Array:
		if len(x) == 0 {
			buf.WriteString("<array/>\n")
			return nil
		}
		buf.WriteString("<array>\n")
		for _, el := range x {
			if err := encodeValue(buf, el, depth+1); err != nil {
				return err
			}
		}
		indent(buf, depth)
		buf.WriteString("</array>\n")
	case string:
		es, err := escape(x)
		if err != nil {
			return err
		}
		fmt.Fprintf(buf, "<string>%s</string>\n", es)
	case int:
		fmt.Fprintf(buf, "<integer>%d</integer>\n", x)
	case int64:
		fmt.Fprintf(buf, "<integer>%d</integer>\n", x)
	case float64:
		fmt.Fprintf(buf, "<real>%g</real>\n", x)
	case bool:
		if x {
			buf.WriteString("<true/>\n")
		} else {
			buf.WriteString("<false/>\n")
		}
	case time.Time:
		fmt.Fprintf(buf, "<date>%s</date>\n", x.UTC().Format(dateLayout))
	case []byte:
		buf.WriteString("<data>\n")
		enc := base64.StdEncoding.EncodeToString(x)
		for i := 0; i < len(enc); i += 68 {
			end := i + 68
			if end > len(enc) {
				end = len(enc)
			}
			indent(buf, depth)
			buf.WriteString(enc[i:end])
			buf.WriteByte('\n')
		}
		indent(buf, depth)
		buf.WriteString("</data>\n")
	default:
		return fmt.Errorf("plist: unsupported value type %T", v)
	}
	return nil
}

// escape renders s as XML character data. XML 1.0 carries only the runes
// of its Char production, and xml.EscapeText writes any other rune (and
// invalid UTF-8) as U+FFFD, so such a string is an error, not a silent
// rewrite that would not round-trip.
func escape(s string) (string, error) {
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			return "", fmt.Errorf("plist: string %q is not valid UTF-8 at byte %d", s, i)
		}
		if !isXMLChar(r) {
			return "", fmt.Errorf("plist: string %q holds %U at byte %d, which XML 1.0 cannot carry", s, r, i)
		}
		i += n
	}
	var b strings.Builder
	if err := xml.EscapeText(&b, []byte(s)); err != nil {
		return "", err
	}
	return b.String(), nil
}

// isXMLChar reports whether r is in XML 1.0's Char production.
func isXMLChar(r rune) bool {
	return r == '\t' || r == '\n' || r == '\r' ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// Unmarshal parses an XML plist document into a Value.
func Unmarshal(data []byte) (Value, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	// Find the <plist> element, then its first child element.
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("plist: no <plist> element: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Local != "plist" {
				return nil, fmt.Errorf("plist: unexpected root element <%s>", se.Name.Local)
			}
			break
		}
	}
	v, err := decodeNext(dec)
	if err != nil {
		return nil, err
	}
	return v, nil
}

// decodeNext reads the next value element from the decoder.
func decodeNext(dec *xml.Decoder) (Value, error) {
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("plist: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return decodeElement(dec, t)
		case xml.EndElement:
			return nil, fmt.Errorf("plist: unexpected </%s>", t.Name.Local)
		}
	}
}

func decodeElement(dec *xml.Decoder, se xml.StartElement) (Value, error) {
	switch se.Name.Local {
	case "dict":
		return decodeDict(dec, se)
	case "array":
		return decodeArray(dec, se)
	case "string":
		s, err := readText(dec, se)
		return s, err
	case "integer":
		s, err := readText(dec, se)
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("plist: bad integer %q: %w", s, err)
		}
		return n, nil
	case "real":
		s, err := readText(dec, se)
		if err != nil {
			return nil, err
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("plist: bad real %q: %w", s, err)
		}
		return f, nil
	case "true":
		if err := dec.Skip(); err != nil {
			return nil, err
		}
		return true, nil
	case "false":
		if err := dec.Skip(); err != nil {
			return nil, err
		}
		return false, nil
	case "date":
		s, err := readText(dec, se)
		if err != nil {
			return nil, err
		}
		t, err := time.Parse(dateLayout, strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("plist: bad date %q: %w", s, err)
		}
		return t, nil
	case "data":
		s, err := readText(dec, se)
		if err != nil {
			return nil, err
		}
		clean := strings.Map(func(r rune) rune {
			if r == ' ' || r == '\n' || r == '\t' || r == '\r' {
				return -1
			}
			return r
		}, s)
		b, err := base64.StdEncoding.DecodeString(clean)
		if err != nil {
			return nil, fmt.Errorf("plist: bad data: %w", err)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("plist: unsupported element <%s>", se.Name.Local)
	}
}

func readText(dec *xml.Decoder, se xml.StartElement) (string, error) {
	var sb strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", fmt.Errorf("plist: in <%s>: %w", se.Name.Local, err)
		}
		switch t := tok.(type) {
		case xml.CharData:
			sb.Write(t)
		case xml.EndElement:
			return sb.String(), nil
		case xml.StartElement:
			return "", fmt.Errorf("plist: unexpected <%s> inside <%s>", t.Name.Local, se.Name.Local)
		}
	}
}

func decodeDict(dec *xml.Decoder, se xml.StartElement) (Value, error) {
	d := Dict{}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("plist: in dict: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "key" {
				return nil, fmt.Errorf("plist: expected <key> in dict, got <%s>", t.Name.Local)
			}
			key, err := readText(dec, t)
			if err != nil {
				return nil, err
			}
			val, err := decodeNext(dec)
			if err != nil {
				return nil, err
			}
			d[key] = val
		case xml.EndElement:
			return d, nil
		}
	}
}

func decodeArray(dec *xml.Decoder, se xml.StartElement) (Value, error) {
	a := Array{}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("plist: in array: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			v, err := decodeElement(dec, t)
			if err != nil {
				return nil, err
			}
			a = append(a, v)
		case xml.EndElement:
			return a, nil
		}
	}
}

// Write marshals v to w.
func Write(w io.Writer, v Value) error {
	data, err := Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
