// Package latextest holds the reference sentence splitter that the
// front ends' tests check their parsers against: the splitter
// latex.AppendSentences replaced, which splits into words with
// strings.Fields and joins each sentence with strings.Join.
package latextest

import "strings"

// SplitSentences splits text into sentences the way latex.AppendSentences
// must split the one piece text: on a word ending in '.', '!' or '?'
// (closing punctuation may follow) that is not a known abbreviation, with
// the words of each sentence joined by single spaces.
func SplitSentences(text string) []string {
	var out, cur []string
	for _, w := range strings.Fields(text) {
		cur = append(cur, w)
		if sentenceEnd(w) {
			out = append(out, strings.Join(cur, " "))
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, strings.Join(cur, " "))
	}
	return out
}

// AppendSentences is the reference for latex.AppendSentences: it joins
// the pieces with single spaces, splits the result with SplitSentences
// and appends the sentences to dst.
func AppendSentences(dst, pieces []string) []string {
	return append(dst, SplitSentences(strings.Join(pieces, " "))...)
}

func sentenceEnd(word string) bool {
	w := strings.TrimRight(word, `)]}'"`)
	if w == "" {
		return false
	}
	switch w[len(w)-1] {
	case '.', '!', '?':
	default:
		return false
	}
	switch strings.ToLower(strings.TrimRight(w, ".!?")) {
	case "e.g", "i.e", "cf", "etc", "vs", "dr", "mr", "mrs", "ms", "fig", "eq", "sec":
		return false
	}
	return true
}
