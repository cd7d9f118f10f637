// Package htmldoc parses a subset of HTML into document trees, serving
// the paper's motivating scenario (§1): a user revisits a web page and
// wants the changes since the last visit highlighted. The paper's future
// work (§9) names HTML as the next LaDiff front end; this package
// provides it with a hand-rolled tokenizer (stdlib only).
//
// Recognized structure: <h1>/<h2> open sections and subsections, <p>
// wraps paragraphs, <ul>/<ol>/<dl> open lists (merged to one label, like
// LaDiff's LaTeX lists), <li>/<dt>/<dd> items. Other tags are stripped;
// their text content is kept. Entities for the common cases are decoded.
package htmldoc

import (
	"fmt"
	"strings"

	"ladiff/internal/fault"
	"ladiff/internal/gen"
	"ladiff/internal/latex"
	"ladiff/internal/lderr"
	"ladiff/internal/tree"
)

// Labels shared with the rest of the pipeline.
const (
	LabelSubsection tree.Label = "subsection"
)

// Parse converts HTML into a document tree.
func Parse(src string) (*tree.Tree, error) {
	return ParseLimited(src, tree.Limits{})
}

// ParseLimited is Parse with resource limits enforced while the tree is
// built: MaxBytes against the raw input up front, MaxNodes/MaxDepth at
// the first node past the limit. Errors are tagged for the lderr
// taxonomy: syntax failures as ErrParse, limit violations as ErrLimit.
func ParseLimited(src string, lim tree.Limits) (*tree.Tree, error) {
	return parse(src, lim, latex.AppendSentences)
}

// parse is ParseLimited with its sentence splitter passed in, so tests
// can run the same parser over a reference splitter.
func parse(src string, lim tree.Limits, split func(dst, pieces []string) []string) (_ *tree.Tree, err error) {
	defer func() { err = lderr.TagAs(lderr.ErrParse, err) }()
	if err := fault.Check(fault.ParseHTML); err != nil {
		return nil, err
	}
	if err := lim.CheckBytes(len(src)); err != nil {
		return nil, err
	}
	defer tree.CatchLimit(&err)
	t := tree.New()
	t.Restrict(lim)
	defer t.Unrestrict()
	t.SetRoot(gen.LabelDocument, "")
	p := &parser{t: t, split: split}
	if err := p.run(src); err != nil {
		return nil, err
	}
	p.flushText()
	return t, nil
}

type parser struct {
	t          *tree.Tree
	section    *tree.Node
	subsection *tree.Node
	list       *tree.Node
	listDepth  int
	item       *tree.Node
	textBuf    []string                            // the current paragraph's decoded text runs
	sentences  []string                            // the flushed paragraph's sentences, reused by every flush
	split      func(dst, pieces []string) []string // the sentence splitter, latex.AppendSentences
	// pendingHeading, when non-empty, collects text inside <h1>/<h2>.
	inHeading string
	headBuf   []string
}

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

var listTags = map[string]bool{"ul": true, "ol": true, "dl": true}
var itemTags = map[string]bool{"li": true, "dt": true, "dd": true}
var skipContentTags = map[string]bool{"script": true, "style": true, "head": true, "title": true}

func (p *parser) run(src string) error {
	i := 0
	for i < len(src) {
		j := strings.IndexByte(src[i:], '<')
		if j < 0 {
			p.text(src[i:])
			break
		}
		p.text(src[i : i+j])
		i += j
		if strings.HasPrefix(src[i:], "<!--") {
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				return fmt.Errorf("htmldoc: unterminated comment")
			}
			i += 4 + end + 3
			continue
		}
		k := strings.IndexByte(src[i:], '>')
		if k < 0 {
			return fmt.Errorf("htmldoc: unterminated tag at byte %d", i)
		}
		tag := src[i+1 : i+k]
		i += k + 1
		name, closing := tagName(tag)
		if skipContentTags[name] && !closing {
			// Skip everything to the matching close tag.
			end := indexCloseTag(src[i:], name)
			if end < 0 {
				return fmt.Errorf("htmldoc: unterminated <%s> content", name)
			}
			i += end
			continue
		}
		p.handleTag(name, closing)
	}
	return nil
}

// indexCloseTag returns the index of the first "</" in s that is followed
// by name in any ASCII case, or -1. Only the name is compared, so
// "</scripts" closes <script>. It scans s itself: a lower-cased copy
// would cost a pass over the rest of the document per tag, and its
// offsets shift wherever a rune changes byte length.
func indexCloseTag(s, name string) int {
	for i := 0; ; {
		j := strings.Index(s[i:], "</")
		if j < 0 {
			return -1
		}
		i += j + 2
		// name is ASCII, so a same-length slice can only fold-match it
		// through ASCII letters.
		if len(s)-i >= len(name) && strings.EqualFold(s[i:i+len(name)], name) {
			return i - 2
		}
	}
}

func tagName(tag string) (name string, closing bool) {
	tag = strings.TrimSpace(tag)
	if strings.HasPrefix(tag, "/") {
		closing = true
		tag = tag[1:]
	}
	tag = strings.TrimSuffix(tag, "/")
	if i := strings.IndexAny(tag, " \t\n"); i >= 0 {
		tag = tag[:i]
	}
	return strings.ToLower(tag), closing
}

func (p *parser) handleTag(name string, closing bool) {
	switch {
	case name == "h1" || name == "h2":
		if closing {
			title := strings.Join(p.headBuf, " ")
			p.headBuf = nil
			if p.inHeading == "h1" {
				p.section = p.t.AppendChild(p.t.Root(), gen.LabelSection, title)
				p.subsection = nil
			} else {
				if p.section == nil {
					p.section = p.t.AppendChild(p.t.Root(), gen.LabelSection, "")
				}
				p.subsection = p.t.AppendChild(p.section, LabelSubsection, title)
			}
			p.inHeading = ""
			return
		}
		p.flushText()
		p.closeList()
		p.inHeading = name
	case name == "p":
		p.flushText()
	case listTags[name]:
		if closing {
			p.flushText()
			if p.listDepth > 0 {
				p.listDepth--
			}
			if p.listDepth == 0 {
				p.closeList()
			}
			return
		}
		p.flushText()
		p.listDepth++
		if p.list == nil {
			p.list = p.t.AppendChild(p.container(), gen.LabelList, "")
			p.item = nil
		}
	case itemTags[name]:
		p.flushText()
		if closing {
			p.item = nil
			return
		}
		if p.list == nil {
			p.list = p.t.AppendChild(p.container(), gen.LabelList, "")
		}
		p.item = p.t.AppendChild(p.list, gen.LabelItem, "")
	case name == "br" || name == "div" || name == "body" || name == "html":
		if name == "div" || name == "body" {
			p.flushText()
		}
	default:
		// Inline or unknown tag: ignore the tag, keep surrounding text.
	}
}

func (p *parser) text(s string) {
	s = decodeEntities(s)
	if strings.TrimSpace(s) == "" {
		return
	}
	if p.inHeading != "" {
		p.headBuf = append(p.headBuf, strings.Fields(s)...)
		return
	}
	// The whole run is kept: the splitter reads the runs as pieces joined
	// by spaces, so a tag still ends a word, and it normalizes whitespace.
	p.textBuf = append(p.textBuf, s)
}

func (p *parser) flushText() {
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
		parent = p.t.AppendChild(parent, gen.LabelParagraph, "")
	}
	p.t.AppendChildren(parent, gen.LabelSentence, p.sentences)
}

func (p *parser) closeList() {
	p.flushText()
	p.list = nil
	p.item = nil
	p.listDepth = 0
}

var entities = strings.NewReplacer(
	"&amp;", "&",
	"&lt;", "<",
	"&gt;", ">",
	"&quot;", `"`,
	"&#39;", "'",
	"&apos;", "'",
	"&nbsp;", " ",
	"&mdash;", "—",
	"&ndash;", "–",
)

// decodeEntities returns a run without '&' as it is: the replacer's
// patterns are longer than a byte, so its Replace walks a trie per byte
// and allocates even when nothing matches.
func decodeEntities(s string) string {
	if strings.IndexByte(s, '&') < 0 {
		return s
	}
	return entities.Replace(s)
}

// Render converts a document tree into simple HTML, the inverse of Parse
// up to whitespace.
func Render(t *tree.Tree) string {
	var b strings.Builder
	b.WriteString("<html><body>\n")
	var rec func(n *tree.Node)
	rec = func(n *tree.Node) {
		switch n.Label() {
		case gen.LabelDocument:
			for _, c := range n.Children() {
				rec(c)
			}
		case gen.LabelSection:
			fmt.Fprintf(&b, "<h1>%s</h1>\n", escape(n.Value()))
			for _, c := range n.Children() {
				rec(c)
			}
		case LabelSubsection:
			fmt.Fprintf(&b, "<h2>%s</h2>\n", escape(n.Value()))
			for _, c := range n.Children() {
				rec(c)
			}
		case gen.LabelParagraph:
			b.WriteString("<p>")
			for i, c := range n.Children() {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(escape(c.Value()))
			}
			b.WriteString("</p>\n")
		case gen.LabelList:
			b.WriteString("<ul>\n")
			for _, c := range n.Children() {
				rec(c)
			}
			b.WriteString("</ul>\n")
		case gen.LabelItem:
			// An item can hold the sentences of several text runs (cut
			// by a nested list or paragraph), and a run's last sentence
			// may lack an end the splitter accepts. A <p> after such a
			// sentence keeps the next one apart on re-parse.
			b.WriteString("<li>")
			kids := n.Children()
			for i, c := range kids {
				if i > 0 {
					if latex.EndsSentence(kids[i-1].Value()) {
						b.WriteByte(' ')
					} else {
						b.WriteString("<p>")
					}
				}
				b.WriteString(escape(c.Value()))
			}
			b.WriteString("</li>\n")
		case gen.LabelSentence:
			// A bare sentence outside a paragraph (possible for trees
			// from other front ends).
			fmt.Fprintf(&b, "<p>%s</p>\n", escape(n.Value()))
		}
	}
	if t.Root() != nil {
		rec(t.Root())
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

// The escapers are built once and shared: a strings.Replacer builds its
// 256-entry table on first use, is safe for concurrent use, and returns
// its input without allocating when nothing needs escaping.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	// attrEscaper is for double-quoted attribute values. Apostrophes stay
	// as they are.
	attrEscaper = strings.NewReplacer("&", "&amp;", `"`, "&quot;", "<", "&lt;", ">", "&gt;")
)

func escape(s string) string { return textEscaper.Replace(s) }
