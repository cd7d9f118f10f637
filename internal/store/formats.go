package store

import (
	"fmt"

	"ladiff/internal/delta"
	"ladiff/internal/htmldoc"
	"ladiff/internal/jsondoc"
	"ladiff/internal/latex"
	"ladiff/internal/textdoc"
	"ladiff/internal/tree"
	"ladiff/internal/xmldoc"
)

// Formats lists the parser front ends the store, the serving tier and
// the ladiff CLI accept; all three parse and render through this table.
// "json" diffs arbitrary JSON documents structurally (jsondoc); "tree"
// is the generic indented wire format of (*tree.Tree).String, the
// domain-agnostic entry for object hierarchies and database dumps.
var Formats = []string{"latex", "html", "text", "xml", "json", "tree"}

// ValidFormat reports whether format names a known parser front end.
func ValidFormat(format string) bool {
	for _, f := range Formats {
		if f == format {
			return true
		}
	}
	return false
}

// ParseDoc parses src in the named format into a document tree, with lim
// enforced while the tree is built — a pathological document aborts at
// the limit (lderr.ErrLimit) instead of materializing a huge tree that
// is measured afterwards.
//
// Parsing is deterministic: the same (format, src) pair always produces
// the same tree with the same node identifiers. The store's persistence
// replay depends on this — base snapshots are logged as source text and
// re-parsed on startup, and the delta chain references the identifiers
// of exactly that parse.
func ParseDoc(format, src string, lim tree.Limits) (*tree.Tree, error) {
	switch format {
	case "latex":
		return latex.ParseLimited(src, lim)
	case "html":
		return htmldoc.ParseLimited(src, lim)
	case "text":
		return textdoc.ParseLimited(src, lim)
	case "xml":
		return xmldoc.ParseLimited(src, lim)
	case "json":
		return jsondoc.ParseLimited(src, lim)
	case "tree":
		return tree.ParseLimited(src, lim)
	default:
		return nil, fmt.Errorf("unknown format %q (want one of %v)", format, Formats)
	}
}

// RenderDoc renders a document tree back into the named format, the
// inverse of ParseDoc used by version checkouts to return documents in
// the syntax they were ingested in.
func RenderDoc(format string, t *tree.Tree) (string, error) {
	switch format {
	case "latex":
		return latex.RenderPlain(t), nil
	case "html":
		return htmldoc.Render(t), nil
	case "text":
		return textdoc.Render(t), nil
	case "xml":
		return xmldoc.Render(t), nil
	case "json":
		return jsondoc.Render(t)
	case "tree":
		return t.String(), nil
	default:
		return "", fmt.Errorf("unknown format %q (want one of %v)", format, Formats)
	}
}

// RenderMarked renders a delta tree marked up in the named format's
// conventions: the paper's Table 2 markup for LaTeX, <ins>/<del>/<em>
// with move anchors for HTML, and the +/-/~ annotated change report for
// everything else (text, xml, json, tree — formats without a native
// markup vocabulary).
func RenderMarked(format string, dt *delta.Tree) string {
	switch format {
	case "latex":
		return latex.Render(dt)
	case "html":
		return htmldoc.RenderDelta(dt)
	default:
		return textdoc.RenderDelta(dt)
	}
}
