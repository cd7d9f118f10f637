// Package ladiff detects and represents changes in hierarchically
// structured information, implementing Chawathe, Rajaraman, Garcia-Molina
// and Widom, "Change Detection in Hierarchically Structured Information"
// (SIGMOD 1996) — the tree-diff algorithm behind LaDiff and the ancestor
// of most XML/AST differs.
//
// Given an old and a new version of a labeled, valued, ordered tree, the
// package computes a minimum-cost edit script of node inserts, deletes,
// value updates, and subtree moves that transforms the old version into
// the new one (§3–§4 of the paper), without assuming object identifiers:
// correspondence is discovered by the Good Matching algorithms of §5
// (FastMatch by default). The result can also be rendered as a delta tree
// (§6) — the new version annotated with the changes plus tombstones for
// what was removed — which the LaTeX, HTML and plain-text front ends use
// to produce marked-up documents like the paper's LaDiff system (§7).
//
// # Quick start
//
//	oldT, _ := ladiff.ParseLatex(oldSource)
//	newT, _ := ladiff.ParseLatex(newSource)
//	res, err := ladiff.Diff(oldT, newT, ladiff.Options{})
//	if err != nil { ... }
//	fmt.Println(res.Script)          // INS/DEL/UPD/MOV operations
//	dt, _ := ladiff.BuildDelta(res)
//	fmt.Println(ladiff.RenderLatex(dt)) // marked-up document
//
// Trees can also be built programmatically (NewTree, (*Tree).AppendChild),
// parsed from an indented text format (ParseTree), or decoded from JSON.
//
// # Guarantees
//
// The script returned by Diff applies cleanly to a clone of the old tree
// and yields a tree isomorphic to the new one. It is minimum-cost among
// scripts conforming to the discovered matching (Theorem C.2); when the
// inputs satisfy the paper's Matching Criteria 1–3 and the label schema
// is acyclic, the matching itself is the unique maximal one (Theorem
// 5.2). That does not make the script minimum-cost over all matchings:
// Criterion 2 can rebuild a paragraph that keeping would make cheaper
// (an 11-node pair costs 7 where 3 suffice; TestGuaranteeStops). When
// Criterion 3 fails (near-duplicate leaves), the matching itself may be
// sub-optimal; Options.PostProcess enables the §8 repair pass.
package ladiff
