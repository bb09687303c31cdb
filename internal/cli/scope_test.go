package cli

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// startScope opens a scope writing run.json and journal.jsonl to a fresh
// directory, with its "wrote" lines discarded.
func startScope(t *testing.T) (*Scope, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := ObsFlags{}.Start("test", nil, 1, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.logw = io.Discard
	return s, dir
}

func TestScopeWritesJournal(t *testing.T) {
	s, dir := startScope(t)
	s.Rec.Log(obs.Line{TNS: 5, Kind: "place", VM: 1, Server: 2, Dest: -1})
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"t_ns":5,"kind":"place","vm":1,"server":2,"dest":-1}` + "\n"; string(got) != want {
		t.Errorf("journal.jsonl = %q, want %q", got, want)
	}
}

// A journal write that fails mid-run (here: the file is already closed)
// must fail Close, not vanish behind a complete-looking run.json.
func TestScopeCloseReportsJournalWriteError(t *testing.T) {
	s, _ := startScope(t)
	if err := s.journalFile.Close(); err != nil {
		t.Fatal(err)
	}
	// Close must not find the error by closing the file a second time: only
	// the journal's kept write error may fail it.
	s.journalFile = nil
	s.Rec.Log(obs.Line{Kind: "place"})
	err := s.Close()
	if !errors.Is(err, os.ErrClosed) || !strings.Contains(err.Error(), "journal.jsonl") {
		t.Fatalf("Close = %v, want the journal's write error", err)
	}
}
