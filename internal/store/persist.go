package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"ladiff/internal/edit"
	"ladiff/internal/fault"
	"ladiff/internal/lderr"
	"ladiff/internal/tree"
)

// logRecord is one line of the append-only persistence log. A "base"
// record carries the original document source text (re-parsed on
// replay, which reproduces the exact node-identifier space the delta
// chain references — see ParseDoc); a "delta" record carries the
// forward edit script in the library's standard wire encoding
// (edit.Op's JSON form, the same one /v1/diff serves).
type logRecord struct {
	Kind    string      `json:"kind"` // "base" or "delta"
	Key     string      `json:"key"`
	Format  string      `json:"format,omitempty"` // base records only
	Version int         `json:"version"`
	FP      string      `json:"fp"`
	Source  string      `json:"source,omitempty"` // base records only
	Script  edit.Script `json:"script,omitempty"` // delta records only
	Time    time.Time   `json:"time"`
}

// logWriter serializes appends to the log file. Write-ahead ordering
// (record on disk before the in-memory commit) means a crash can leave
// the log one record ahead of memory — replay restores that record —
// but never behind.
type logWriter struct {
	mu     sync.Mutex
	f      *os.File
	broken bool
}

func (w *logWriter) append(rec logRecord) error {
	if err := fault.Check(fault.StorePersist); err != nil {
		// The fault fires before any byte reaches the file: the ingest
		// aborts with log and memory still agreeing (neither has the
		// version).
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return lderr.Internal(fmt.Errorf("store: encoding log record: %w", err))
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken {
		return ErrLogBroken
	}
	if n, err := w.f.Write(data); err != nil {
		if n > 0 {
			// A torn line is now on disk. Refuse further appends so the
			// file never accumulates garbage past the first tear; a
			// reopen truncates the tail and recovers every version up
			// to it.
			w.broken = true
		}
		return fmt.Errorf("store: appending log record: %w", err)
	}
	return nil
}

func (w *logWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Open returns a store persisted to the append-only log at path,
// replaying any existing log into memory first. A torn final line —
// the signature of a crash mid-append — is truncated away and the
// store recovers every fully written version; corruption anywhere
// before the final record is an error. Every replayed version is
// verified against its recorded fingerprint.
func Open(path string, cfg Config) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: reading log: %w", err)
	}
	s := New(cfg)
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No terminating newline: a crash mid-append. Drop the tail.
			break
		}
		line := data[off : off+nl]
		rest := off + nl + 1
		if len(bytes.TrimSpace(line)) == 0 {
			off = rest
			continue
		}
		var rec logRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if rest == len(data) {
				// Undecodable final line: also a torn append (the tear
				// happened to include a newline byte). Drop it.
				break
			}
			f.Close()
			return nil, fmt.Errorf("store: log corrupted at byte %d (mid-file): %w", off, err)
		}
		if err := s.replay(rec); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: replaying log record at byte %d: %w", off, err)
		}
		off = rest
	}
	if off < len(data) {
		if err := f.Truncate(int64(off)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn log tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seeking log: %w", err)
	}
	s.log = &logWriter{f: f}
	return s, nil
}

// replay applies one log record during Open. It mirrors the commit
// paths of Ingest exactly — same parse, same apply, same checkpoint
// policy — and verifies the resulting tree against the record's
// fingerprint, so a replayed store is indistinguishable from one that
// never restarted.
func (s *Store) replay(rec logRecord) error {
	d, err := s.doc(rec.Key, true)
	if err != nil {
		return err
	}
	switch rec.Kind {
	case "base":
		// Replay parses without limits: the content was admitted when
		// it was first ingested, and a tightened limit must not make an
		// existing log unreadable.
		t, err := ParseDoc(rec.Format, rec.Source, tree.Limits{})
		if err != nil {
			return fmt.Errorf("re-parsing %q base v%d: %w", rec.Key, rec.Version, err)
		}
		if got := fpOf(t).String(); got != rec.FP {
			return fmt.Errorf("%q base v%d: fingerprint %s, log says %s", rec.Key, rec.Version, got, rec.FP)
		}
		info := VersionInfo{Version: rec.Version, Fingerprint: rec.FP,
			Nodes: t.Len(), Time: rec.Time}
		if d.head == nil {
			if rec.Version != 1 {
				return fmt.Errorf("%q starts at v%d, want 1", rec.Key, rec.Version)
			}
			d.format = rec.Format
			d.head = t
			d.versions = []VersionInfo{info}
			s.ctr.docs.Add(1)
		} else {
			if rec.Version != len(d.versions)+1 {
				return fmt.Errorf("%q rebase v%d out of order (have %d versions)",
					rec.Key, rec.Version, len(d.versions))
			}
			info.Rebase = true
			d.snapshots[rec.Version-1] = s.sharedSnapshot(d.head)
			d.forwards = append(d.forwards, nil)
			d.inverses = append(d.inverses, nil)
			d.versions = append(d.versions, info)
			d.head = t
			s.ctr.rebases.Add(1)
		}
		s.ctr.versions.Add(1)
		return nil
	case "delta":
		if d.head == nil {
			return fmt.Errorf("%q delta v%d before any base", rec.Key, rec.Version)
		}
		if rec.Version != len(d.versions)+1 {
			return fmt.Errorf("%q delta v%d out of order (have %d versions)",
				rec.Key, rec.Version, len(d.versions))
		}
		forward := exact(rec.Script)
		inverse, advanced, err := edit.Invert(forward, d.head)
		if err != nil {
			return fmt.Errorf("%q v%d: inverting delta: %w", rec.Key, rec.Version, err)
		}
		if got := fpOf(advanced).String(); got != rec.FP {
			return fmt.Errorf("%q v%d: fingerprint %s, log says %s", rec.Key, rec.Version, got, rec.FP)
		}
		d.forwards = append(d.forwards, forward)
		d.inverses = append(d.inverses, inverse)
		d.versions = append(d.versions, VersionInfo{Version: rec.Version,
			Fingerprint: rec.FP, Nodes: advanced.Len(), Ops: countOps(forward), Time: rec.Time})
		d.head = advanced
		s.checkpoint(d, rec.Version, advanced)
		s.ctr.versions.Add(1)
		return nil
	default:
		return fmt.Errorf("unknown log record kind %q", rec.Kind)
	}
}
