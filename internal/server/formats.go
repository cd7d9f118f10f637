package server

import (
	"encoding/json"
	"fmt"

	"ladiff"
	"ladiff/internal/store"
)

// Outputs is the list of render back ends /v1/diff and
// /v1/docs/{key}/diff support: the raw edit-script operations, the
// delta-tree JSON of internal/delta (the one wire format shared with the
// CLI's -out json), or a marked-up document in the input format's own
// markup conventions.
var Outputs = []string{"script", "delta", "marked"}

// checkFormat refuses a request naming a parser front end outside
// store.Formats — the one list /v1/diff, /v1/patch and the document
// endpoints accept, owned by internal/store because its persistence
// replay depends on these parsers' determinism.
func (s *Server) checkFormat(format string) *ItemError {
	if store.ValidFormat(format) {
		return nil
	}
	return s.badRequest(fmt.Sprintf("unknown format %q (want one of %v)", format, store.Formats))
}

// checkOutput resolves a requested render back end, empty meaning
// "script", and refuses one outside Outputs.
func (s *Server) checkOutput(output string) (string, *ItemError) {
	if output == "" {
		return "script", nil
	}
	for _, o := range Outputs {
		if o == output {
			return output, nil
		}
	}
	return "", s.badRequest(fmt.Sprintf("unknown output %q (want one of %v)", output, Outputs))
}

// render produces a diff's requested output, exactly one of: the edit
// script, the delta tree in the shared wire format, or the delta tree
// marked up in format's conventions (store.RenderMarked).
func render(res *ladiff.Result, format, output string) (ladiff.Script, json.RawMessage, string, error) {
	if output == "script" {
		return res.Script, nil, "", nil
	}
	dt, err := ladiff.BuildDelta(res)
	if err != nil {
		return nil, nil, "", fmt.Errorf("delta: %w", err)
	}
	if output == "marked" {
		return nil, nil, store.RenderMarked(format, dt), nil
	}
	raw, err := json.Marshal(dt)
	if err != nil {
		return nil, nil, "", fmt.Errorf("delta: %w", err)
	}
	return nil, raw, "", nil
}
