package plist

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unicode/utf8"
)

func roundTrip(t *testing.T, v Value) Value {
	t.Helper()
	data, err := Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", v, err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v\ndoc:\n%s", err, data)
	}
	return out
}

func TestScalars(t *testing.T) {
	cases := []Value{
		"hello",
		"with <angle> & amp",
		int64(42),
		int64(-7),
		3.5,
		true,
		false,
		time.Date(2021, 2, 1, 12, 30, 0, 0, time.UTC),
		[]byte{0, 1, 2, 253, 254, 255},
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if tm, ok := v.(time.Time); ok {
			if !got.(time.Time).Equal(tm) {
				t.Errorf("time round trip: %v != %v", got, v)
			}
			continue
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %T: %v != %v", v, got, v)
		}
	}
}

func TestIntPromotion(t *testing.T) {
	got := roundTrip(t, 7) // plain int marshals, comes back int64
	if got != int64(7) {
		t.Errorf("int came back as %T %v", got, got)
	}
}

func TestDict(t *testing.T) {
	in := Dict{
		"name":    "root",
		"version": int64(3),
		"ok":      true,
		"nested":  Dict{"a": int64(1)},
		"list":    Array{"x", int64(2)},
	}
	got := roundTrip(t, in).(Dict)
	if !reflect.DeepEqual(got, in) {
		t.Errorf("dict round trip:\n got %#v\nwant %#v", got, in)
	}
}

func TestEmptyContainers(t *testing.T) {
	d := roundTrip(t, Dict{}).(Dict)
	if len(d) != 0 {
		t.Errorf("empty dict came back with %d keys", len(d))
	}
	a := roundTrip(t, Array{}).(Array)
	if len(a) != 0 {
		t.Errorf("empty array came back with %d items", len(a))
	}
}

func TestDeterministicKeyOrder(t *testing.T) {
	in := Dict{"zebra": int64(1), "apple": int64(2), "mid": int64(3)}
	a, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("Marshal not deterministic")
	}
	if strings.Index(string(a), "apple") > strings.Index(string(a), "zebra") {
		t.Error("keys not sorted")
	}
}

func TestLargeDataWraps(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	got := roundTrip(t, data).([]byte)
	if !reflect.DeepEqual(got, data) {
		t.Error("large data round trip failed")
	}
}

func TestMarshalUnsupportedType(t *testing.T) {
	if _, err := Marshal(struct{}{}); err == nil {
		t.Error("struct should be unsupported")
	}
	if _, err := Marshal(Dict{"k": struct{}{}}); err == nil {
		t.Error("nested unsupported type should error")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"empty", ""},
		{"not plist", "<?xml version=\"1.0\"?><other/>"},
		{"bad integer", "<plist><integer>xyz</integer></plist>"},
		{"bad real", "<plist><real>xyz</real></plist>"},
		{"bad date", "<plist><date>notadate</date></plist>"},
		{"bad data", "<plist><data>!!!</data></plist>"},
		{"dict without key", "<plist><dict><string>v</string></dict></plist>"},
		{"unknown element", "<plist><wat/></plist>"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Unmarshal([]byte(c.doc)); err == nil {
				t.Errorf("Unmarshal(%s) should fail", c.name)
			}
		})
	}
}

func TestUnmarshalRealAppleStyleDoc(t *testing.T) {
	doc := `<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE plist PUBLIC "-//Apple//DTD PLIST 1.0//EN" "http://www.apple.com/DTDs/PropertyList-1.0.dtd">
<plist version="1.0">
<dict>
	<key>trustList</key>
	<dict>
		<key>abc123</key>
		<array>
			<dict>
				<key>kSecTrustSettingsPolicy</key>
				<string>sslServer</string>
				<key>kSecTrustSettingsResult</key>
				<integer>1</integer>
			</dict>
		</array>
	</dict>
	<key>trustVersion</key>
	<integer>1</integer>
</dict>
</plist>
`
	v, err := Unmarshal([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	root := v.(Dict)
	if root["trustVersion"] != int64(1) {
		t.Errorf("trustVersion = %v", root["trustVersion"])
	}
	tl := root["trustList"].(Dict)
	arr := tl["abc123"].(Array)
	rec := arr[0].(Dict)
	if rec["kSecTrustSettingsPolicy"] != "sslServer" {
		t.Errorf("policy = %v", rec["kSecTrustSettingsPolicy"])
	}
}

// TestPropertyStringRoundTrip: Marshal refuses a string XML 1.0 cannot
// carry, and every other string round-trips unchanged.
func TestPropertyStringRoundTrip(t *testing.T) {
	prop := func(s string) bool {
		data, err := Marshal(s)
		if !isValidXMLString(s) {
			return err != nil
		}
		if err != nil {
			return false
		}
		out, err := Unmarshal(data)
		return err == nil && out == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalRejectsNonXMLChars: U+FFFE, U+FFFF, C0 controls and invalid
// UTF-8, in a string or a dict key, are errors rather than a silent
// rewrite to U+FFFD; U+FFFD itself and tab, newline and carriage return
// round-trip.
func TestMarshalRejectsNonXMLChars(t *testing.T) {
	for _, s := range []string{"a\uFFFEb", "\uFFFF", "bell\x07", "\x00", "bad\xffutf8"} {
		if _, err := Marshal(s); err == nil {
			t.Errorf("Marshal(%q) = nil error, want one", s)
		}
		if _, err := Marshal(Dict{s: "v"}); err == nil {
			t.Errorf("Marshal(Dict{%q: v}) = nil error, want one", s)
		}
	}
	for _, s := range []string{"\uFFFD", "tab\tnl\ncr\r", "\U0010FFFF"} {
		data, err := Marshal(Dict{s: s})
		if err != nil {
			t.Fatalf("Marshal(%q): %v", s, err)
		}
		if out, err := Unmarshal(data); err != nil || out.(Dict)[s] != s {
			t.Errorf("%q: round trip gave %#v, %v", s, out, err)
		}
	}
}

func TestPropertyDataRoundTrip(t *testing.T) {
	prop := func(b []byte) bool {
		data, err := Marshal(b)
		if err != nil {
			return false
		}
		out, err := Unmarshal(data)
		if err != nil {
			return false
		}
		got := out.([]byte)
		if len(got) == 0 && len(b) == 0 {
			return true
		}
		return string(got) == string(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// isValidXMLString reports whether s is valid UTF-8 made only of runes in
// XML 1.0's Char production: #x9 | #xA | #xD | [#x20-#xD7FF] |
// [#xE000-#xFFFD] | [#x10000-#x10FFFF].
func isValidXMLString(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		switch {
		case r == 0x9, r == 0xA, r == 0xD:
		case r < 0x20, r >= 0xD800 && r <= 0xDFFF, r == 0xFFFE, r == 0xFFFF:
			return false
		}
	}
	return true
}
