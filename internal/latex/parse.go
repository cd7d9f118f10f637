// Package latex implements the LaDiff front end of Chawathe et al.
// (SIGMOD 1996, §7 and Appendix A): parsing a subset of LaTeX into the
// label-value document trees the change-detection pipeline works on, and
// rendering a computed delta tree back into a marked-up LaTeX document
// following the Table 2 conventions.
//
// The parsed subset matches the paper's: sentences, paragraphs,
// subsections, sections, lists, items, and document. As in LaDiff, the
// three list kinds (itemize, enumerate, description) are merged into a
// single "list" label so the label schema stays acyclic (§5.1); directly
// nested lists are flattened into their outer list for the same reason.
package latex

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"ladiff/internal/compare"
	"ladiff/internal/fault"
	"ladiff/internal/gen"
	"ladiff/internal/lderr"
	"ladiff/internal/tree"
)

// Labels used by the document trees; shared with the synthetic generator
// so workloads and parsed documents are interchangeable.
const (
	LabelDocument              = gen.LabelDocument
	LabelSection               = gen.LabelSection
	LabelSubsection tree.Label = "subsection"
	LabelParagraph             = gen.LabelParagraph
	LabelSentence              = gen.LabelSentence
	LabelList                  = gen.LabelList
	LabelItem                  = gen.LabelItem
)

// Parse converts LaTeX source into a document tree. Only the body between
// \begin{document} and \end{document} is parsed when present; otherwise
// the whole input is treated as the body. Comments (% to end of line) are
// stripped. Unknown commands inside text are kept verbatim as words, so
// no content is lost.
func Parse(src string) (*tree.Tree, error) {
	return ParseLimited(src, tree.Limits{})
}

// ParseLimited is Parse with resource limits enforced while the tree is
// built: MaxBytes against the raw input up front, MaxNodes/MaxDepth at
// the first node past the limit. Errors are tagged for the lderr
// taxonomy: syntax failures as ErrParse, limit violations as ErrLimit.
func ParseLimited(src string, lim tree.Limits) (*tree.Tree, error) {
	return parse(src, lim, stripComments, AppendSentences)
}

// parse is ParseLimited with its comment stripper and sentence splitter
// passed in, so tests can run the same parser over reference versions of
// both.
func parse(src string, lim tree.Limits, strip func(string) string, split func(dst, pieces []string) []string) (_ *tree.Tree, err error) {
	defer func() { err = lderr.TagAs(lderr.ErrParse, err) }()
	if err := fault.Check(fault.ParseLatex); err != nil {
		return nil, err
	}
	if err := lim.CheckBytes(len(src)); err != nil {
		return nil, err
	}
	defer tree.CatchLimit(&err)

	body := src
	if i := strings.Index(src, `\begin{document}`); i >= 0 {
		body = src[i+len(`\begin{document}`):]
		if j := strings.Index(body, `\end{document}`); j >= 0 {
			body = body[:j]
		} else {
			return nil, fmt.Errorf("latex: \\begin{document} without \\end{document}")
		}
	}

	t := tree.New()
	t.Restrict(lim)
	defer t.Unrestrict()
	t.SetRoot(LabelDocument, "")
	p := &parser{t: t, split: split}
	if err := p.parseBody(strip(body)); err != nil {
		return nil, err
	}
	p.flushParagraph()
	return t, nil
}

// stripComments removes every comment (an unescaped % to the end of its
// line). A % is escaped only when an odd run of backslashes precedes it:
// "\\%" is the line break \\ followed by a comment. Text without any %
// is returned as it is.
func stripComments(s string) string {
	if strings.IndexByte(s, '%') < 0 {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 1)
	for rest, more := s, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		b.WriteString(line[:commentStart(line)])
		b.WriteByte('\n')
	}
	return b.String()
}

// commentStart returns the index of the % that starts line's comment, or
// len(line) when it has none.
func commentStart(line string) int {
	backslashes := 0
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '\\':
			backslashes++
			continue
		case '%':
			if backslashes%2 == 0 {
				return i
			}
		}
		backslashes = 0
	}
	return len(line)
}

// parser accumulates document structure while scanning the body line by
// line.
type parser struct {
	t          *tree.Tree
	section    *tree.Node // current section, nil before the first
	subsection *tree.Node // current subsection, nil outside one
	list       *tree.Node // current list, nil outside one
	listDepth  int        // nesting depth of list environments (flattened)
	item       *tree.Node // current item, nil outside one
	textBuf    []string   // pending prose for the current paragraph, one piece per line
	sentences  []string   // the flushed paragraph's sentences, reused by every flush
	// split is the sentence splitter, AppendSentences.
	split func(dst, pieces []string) []string
}

// container returns the node new block-level content attaches to.
func (p *parser) container() *tree.Node {
	switch {
	case p.item != nil:
		return p.item
	case p.subsection != nil:
		return p.subsection
	case p.section != nil:
		return p.section
	default:
		return p.t.Root()
	}
}

var listEnvs = map[string]bool{"itemize": true, "enumerate": true, "description": true}

func (p *parser) parseBody(body string) error {
	for lines, more := body, true; more; {
		var line string
		line, lines, more = strings.Cut(lines, "\n")
		line = strings.TrimSpace(line)
		switch {
		case line == "":
			p.flushParagraph()
		case strings.HasPrefix(line, `\section`):
			title, rest, err := bracedArg(line, `\section`)
			if err != nil {
				return err
			}
			p.flushParagraph()
			p.closeList()
			p.subsection = nil
			p.section = p.t.AppendChild(p.t.Root(), LabelSection, title)
			p.bufferText(rest)
		case strings.HasPrefix(line, `\subsection`):
			title, rest, err := bracedArg(line, `\subsection`)
			if err != nil {
				return err
			}
			p.flushParagraph()
			p.closeList()
			if p.section == nil {
				p.section = p.t.AppendChild(p.t.Root(), LabelSection, "")
			}
			p.subsection = p.t.AppendChild(p.section, LabelSubsection, title)
			p.bufferText(rest)
		case strings.HasPrefix(line, `\begin{`):
			env, rest, err := envName(line, `\begin{`)
			if err != nil {
				return err
			}
			if listEnvs[env] {
				p.flushParagraph()
				p.listDepth++
				if p.list == nil {
					// All list kinds share one label (§5.1); a nested
					// list is flattened into the enclosing one.
					p.list = p.t.AppendChild(p.container(), LabelList, "")
					p.item = nil
				}
				p.bufferText(rest)
			} else {
				// Unknown environment: keep its text content.
				p.bufferText(rest)
			}
		case strings.HasPrefix(line, `\end{`):
			env, rest, err := envName(line, `\end{`)
			if err != nil {
				return err
			}
			if listEnvs[env] {
				p.flushParagraph()
				if p.listDepth > 0 {
					p.listDepth--
				}
				if p.listDepth == 0 {
					p.closeList()
				}
			}
			p.bufferText(rest)
		case strings.HasPrefix(line, `\item`):
			if p.list == nil {
				return fmt.Errorf("latex: \\item outside a list environment")
			}
			p.flushParagraph()
			rest := strings.TrimSpace(strings.TrimPrefix(line, `\item`))
			// \item[label] for description lists.
			if strings.HasPrefix(rest, "[") {
				if j := strings.IndexByte(rest, ']'); j >= 0 {
					rest = strings.TrimSpace(rest[j+1:])
				}
			}
			p.item = p.t.AppendChild(p.list, LabelItem, "")
			p.bufferText(rest)
		default:
			p.bufferText(line)
		}
	}
	return nil
}

func (p *parser) bufferText(s string) {
	s = strings.TrimSpace(s)
	if s != "" {
		p.textBuf = append(p.textBuf, s)
	}
}

func (p *parser) closeList() {
	p.flushParagraph()
	p.list = nil
	p.item = nil
	p.listDepth = 0
}

// flushParagraph turns the buffered prose into a paragraph (or item
// content) of sentence leaves.
func (p *parser) flushParagraph() {
	if len(p.textBuf) == 0 {
		return
	}
	p.sentences = p.split(p.sentences[:0], p.textBuf)
	p.textBuf = p.textBuf[:0]
	if len(p.sentences) == 0 {
		return
	}
	parent := p.container()
	if p.item == nil {
		// Items hold sentences directly; ordinary prose gets a paragraph.
		parent = p.t.AppendChild(parent, LabelParagraph, "")
	} else {
		// Leaving the item after its first paragraph of content keeps
		// multi-paragraph items as sibling sentences, which is what
		// LaDiff's subset does.
		parent = p.item
	}
	p.t.AppendChildren(parent, LabelSentence, p.sentences)
}

// AppendSentences appends the sentences of the text that joins pieces
// with single spaces to dst and returns the extended slice, without
// building the joined text. A sentence ends at a word ending in '.', '!'
// or '?' (closing punctuation may follow) that is not a known
// abbreviation, and keeps its terminator; its words, as strings.Fields
// finds them, are joined by single spaces. A nil dst is sized from a
// count of '.', '!' and '?'.
//
// The words are found in one pass over the pieces. Each sentence is
// written once, into its own exact-size string that shares no bytes with
// the pieces or with another sentence: a sentence kept alive by a stored
// edit script then holds only its own bytes, not the paragraph it came
// from.
func AppendSentences(dst, pieces []string) []string {
	open := sentenceSpan{piece: -1} // piece -1: no sentence is open
	last, end := 0, 0               // the last word ends at byte end of pieces[last]
	for pi, text := range pieces {
		prev := 0 // end of the last word in text
		for {
			ws, we := compare.NextWord(text, prev)
			if ws == len(text) {
				break
			}
			if open.piece < 0 {
				open = sentenceSpan{piece: pi, first: ws, size: we - ws, single: true}
			} else {
				open.size += 1 + we - ws
				open.single = open.single && open.piece == pi && ws-prev == 1 && text[prev] == ' '
			}
			prev, last, end = we, pi, we
			if c := text[we-1]; (isTerminator(c) || isCloser(c)) && isSentenceEnd(text[ws:we]) {
				dst = open.appendTo(dst, pieces, last, end)
				open.piece = -1
			}
		}
	}
	if open.piece >= 0 {
		dst = open.appendTo(dst, pieces, last, end)
	}
	return dst
}

// sentenceSpan is a sentence being assembled from the pieces: it starts at
// byte first of pieces[piece], and its words joined by single spaces make
// size bytes. single reports that it lies in one piece with one ' '
// between each pair of its words, so its span can be copied whole.
type sentenceSpan struct {
	piece, first, size int
	single             bool
}

// appendTo appends the sentence to dst. It ends at byte end of
// pieces[last].
func (s sentenceSpan) appendTo(dst, pieces []string, last, end int) []string {
	if dst == nil {
		// Every sentence but the last ends at its own '.', '!' or '?'.
		n := 1
		for i, text := range pieces[s.piece:] {
			if i == 0 {
				text = text[s.first:]
			}
			n += strings.Count(text, ".") + strings.Count(text, "!") + strings.Count(text, "?")
		}
		dst = make([]string, 0, n)
	}
	if s.single {
		return append(dst, strings.Clone(pieces[s.piece][s.first:end]))
	}
	var b strings.Builder
	b.Grow(s.size)
	for i, text := range pieces[s.piece : last+1] {
		lo, hi := 0, len(text)
		if i == 0 {
			lo = s.first
		}
		if s.piece+i == last {
			hi = end
		}
		span := text[lo:hi]
		for ws, we := compare.NextWord(span, 0); ws < len(span); ws, we = compare.NextWord(span, we) {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(span[ws:we])
		}
	}
	return append(dst, b.String())
}

// EndsSentence reports whether AppendSentences ends a sentence at the
// last word of s, so that words following s begin a new one. It
// allocates nothing.
func EndsSentence(s string) bool {
	last := ""
	for ws, we := compare.NextWord(s, 0); ws < len(s); ws, we = compare.NextWord(s, we) {
		last = s[ws:we]
	}
	return isSentenceEnd(last)
}

func isSentenceEnd(word string) bool {
	// Strip closing punctuation that may follow the terminator. Byte
	// loops, because strings.TrimRight with a cutset of several bytes
	// builds a set on every call, and this runs for every word.
	w := word
	for w != "" && isCloser(w[len(w)-1]) {
		w = w[:len(w)-1]
	}
	if w == "" || !isTerminator(w[len(w)-1]) {
		return false
	}
	// Abbreviation guard: known shorthand before the period does not
	// end a sentence ("e.g.", "i.e.", "Dr.").
	for w != "" && isTerminator(w[len(w)-1]) {
		w = w[:len(w)-1]
	}
	return !isAbbreviation(w)
}

// isCloser reports whether c is closing punctuation that may follow a
// sentence terminator.
func isCloser(c byte) bool {
	switch c {
	case ')', ']', '}', '\'', '"':
		return true
	}
	return false
}

// isTerminator reports whether c ends a sentence.
func isTerminator(c byte) bool { return c == '.' || c == '!' || c == '?' }

// isAbbreviation reports whether strings.ToLower(s) is a shorthand that
// does not end a sentence, without building the lowered string.
func isAbbreviation(s string) bool {
	var lower [3]byte // the longest shorthand
	n := 0
	for _, r := range s {
		r = unicode.ToLower(r)
		if r >= utf8.RuneSelf || n == len(lower) {
			return false
		}
		lower[n] = byte(r)
		n++
	}
	switch string(lower[:n]) {
	case "e.g", "i.e", "cf", "etc", "vs", "dr", "mr", "mrs", "ms", "fig", "eq", "sec":
		return true
	}
	return false
}

// bracedArg extracts the {…} argument following the command prefix and
// returns it along with any text after the closing brace. A starred
// variant (\section*) is accepted.
func bracedArg(line, cmd string) (arg, rest string, err error) {
	s := strings.TrimPrefix(line, cmd)
	s = strings.TrimPrefix(s, "*")
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "{") {
		return "", "", fmt.Errorf("latex: %s missing {title}", cmd)
	}
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return strings.TrimSpace(s[1:i]), strings.TrimSpace(s[i+1:]), nil
			}
		}
	}
	return "", "", fmt.Errorf("latex: %s has unbalanced braces", cmd)
}

// envName extracts the environment name from a \begin{...} or \end{...}
// line and returns any trailing text.
func envName(line, prefix string) (string, string, error) {
	s := strings.TrimPrefix(line, prefix)
	j := strings.IndexByte(s, '}')
	if j < 0 {
		return "", "", fmt.Errorf("latex: unterminated %s...}", prefix)
	}
	return s[:j], strings.TrimSpace(s[j+1:]), nil
}
