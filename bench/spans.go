package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// hspan is one span of the harness's own trace: what the benchmark was
// doing around its calls into the program, in host time. Spans inside the
// program are the program's business (internal/trace, simulated time).
type hspan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: a root
	Name    string `json:"name"`
	StartNs int64  `json:"start_unix_ns"`
	EndNs   int64  `json:"end_unix_ns"`
	Run     string `json:"run,omitempty"` // shared by every span of one benchmark run
}

// spanRecorder keeps spans in memory; they are written out once, when the
// run ends. IDs are positions in the slice plus one.
type spanRecorder struct {
	spans []hspan
	root  int
}

func newSpanRecorder(rootName string) *spanRecorder {
	r := &spanRecorder{}
	r.root = r.begin(0, rootName)
	return r
}

func (r *spanRecorder) begin(parent int, name string) int {
	r.spans = append(r.spans, hspan{ID: len(r.spans) + 1, Parent: parent, Name: name, StartNs: time.Now().UnixNano()})
	return len(r.spans)
}

func (r *spanRecorder) end(id int) { r.spans[id-1].EndNs = time.Now().UnixNano() }

// finish closes the root and returns every span.
func (r *spanRecorder) finish() []hspan {
	r.end(r.root)
	return r.spans
}

// adopt grafts spans recorded elsewhere (a rep's child process) under
// parent, renumbering them.
func (r *spanRecorder) adopt(parent int, spans []hspan) {
	base := len(r.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// write stamps the run id on every span and writes them as one JSON array.
func (r *spanRecorder) write(path, run string) error {
	spans := r.finish()
	for i := range spans {
		spans[i].Run = run
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
