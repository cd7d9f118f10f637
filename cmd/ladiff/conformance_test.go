package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"ladiff/internal/conformance"
)

// TestConformance is the CLI column of the conformance matrix
// (internal/conformance): -out script, json and marked on every
// workload, under every knob that applies to the CLI, against the
// library reference.
func TestConformance(t *testing.T) { cliColumn(t) }

// TestJSONFlagMatchesServer is the column's default knob, under the
// name of the test it replaced.
func TestJSONFlagMatchesServer(t *testing.T) { cliColumn(t, "default") }

func cliColumn(t *testing.T, knobs ...string) {
	for _, p := range conformance.Workloads() {
		t.Run(p.Name, func(t *testing.T) {
			refs, err := conformance.References(p)
			if err != nil {
				t.Fatal(err)
			}
			oldF, newF := writeFiles(t, p.Old, p.New, "")
			for _, k := range conformance.Knobs() {
				if !k.Applies("cli", p) || knobs != nil && !slices.Contains(knobs, k.Name) {
					continue
				}
				t.Run(k.Name, func(t *testing.T) {
					cli := func(context.Context, string, conformance.Pair, conformance.Knob) (conformance.Run, error) {
						var outs []string
						for _, out := range []string{"script", "json", "marked"} {
							o := options{format: p.Format, out: out, engine: k.Engine, prune: k.Prune}
							stdout, err := capture(t, func() error { return run(oldF, newF, o) })
							if err != nil {
								return conformance.Run{}, err
							}
							outs = append(outs, stdout)
						}
						var script, delta bytes.Buffer
						err := errors.Join(json.Compact(&script, []byte(outs[0])), json.Compact(&delta, []byte(outs[1])))
						return conformance.Run{Script: script.Bytes(), Delta: delta.Bytes(), Marked: outs[2]}, err
					}
					if err := conformance.Cell("cli", p, k, refs, cli); err != nil {
						t.Error(err)
					}
				})
			}
		})
	}
}
