package obs

import (
	"encoding/json"
	"io"
	"sync" //ecolint:allow goroutine — the journal serializes writers from concurrent experiment variants
)

// Line is the journal's one schema: one data-center mutation per line,
//
//	{"t_ns":1800000000000,"kind":"migrate","vm":12,"server":3,"dest":7}
//
// TNS is virtual simulation time, so journals of the same seeded run are
// byte-identical whichever engine (cluster.Run or protocol.New) wrote them.
// Kind is a dc.EventKind; a field the kind does not name is -1 (the VM of a
// server switch, the destination of anything but a migration).
type Line struct {
	TNS    int64  `json:"t_ns"`
	Kind   string `json:"kind"`
	VM     int    `json:"vm"`
	Server int    `json:"server"`
	Dest   int    `json:"dest"`
}

// Journal writes one JSON Line per logged event. Writes are serialized by a
// mutex so parallel experiment variants can share one journal. The first
// encode or write error stops the journal and is kept for Err: the
// simulation never sees it, but whoever owns the output (cli.Scope) fails
// the run instead of leaving a journal cut short behind an exit status of 0.
type Journal struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJournal returns a journal writing JSONL to w.
func NewJournal(w io.Writer) *Journal {
	return &Journal{enc: json.NewEncoder(w)}
}

// Log writes one line. Safe on a nil journal.
func (j *Journal) Log(l Line) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.err == nil {
		j.err = j.enc.Encode(l)
	}
	j.mu.Unlock()
}

// Err returns the first error the journal hit, or nil. Safe on a nil
// journal.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
