package compare

import (
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// TestASCIISpaceTable: the byte table NextWord consults agrees with
// unicode.IsSpace on every byte below utf8.RuneSelf.
func TestASCIISpaceTable(t *testing.T) {
	for c := 0; c < utf8.RuneSelf; c++ {
		if asciiSpace[c] != unicode.IsSpace(rune(c)) {
			t.Errorf("byte %#x: table says %v, unicode.IsSpace %v", c, asciiSpace[c], !asciiSpace[c])
		}
	}
}

// FuzzNextWord: the words NextWord yields are those of strings.Fields.
func FuzzNextWord(f *testing.F) {
	for _, s := range []string{
		"",
		"plain words here",
		"next\u0085line",
		"no\u00a0break",
		"em\u2003space",
		"ideographic\u3000space",
		"vertical\vtab",
		"form\ffeed",
		"\xff",
		"lone \xff byte",
		"cut \xe2\x80",
		"  edges\t\r\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var got []string
		for ws, we := NextWord(s, 0); ws < len(s); ws, we = NextWord(s, we) {
			got = append(got, s[ws:we])
		}
		if want := strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("NextWord splits %q into %q, strings.Fields into %q", s, got, want)
		}
	})
}
