package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	id, parent int           // parent is -1 for a root span
	req        int           // request (or run) the span belongs to
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), id: len(t.spans), parent: parent, req: req})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.origin)
}

// meanDuration returns the mean duration of the named spans in the given
// unit (0 when there are none).
func (t *tracer) meanDuration(name string, unit time.Duration) float64 {
	if t == nil {
		return 0
	}
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / float64(unit)
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events on one thread, nested by time), which Perfetto and
// chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"id": s.id, "parent": s.parent, "req": s.req},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// reproPrefix marks the frames of the program under test.
const reproPrefix = "repro/internal/"

// rollupProfile charges a CPU profile's samples to packages with
// `go tool pprof -traces` and returns host time per package.
func rollupProfile(profile string) (map[string]time.Duration, error) {
	var out, errOut bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-symbolize=none", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(errOut.String()))
	}
	return attribute(out.String())
}

// attribute applies the attribution rule to `pprof -traces` output: each
// sample is charged to the innermost repro/internal/<pkg> frame on its
// stack, so runtime and standard-library frames count toward the repro
// caller above them; a stack with no repro frame goes to "runtime"
// (garbage collection, scheduling).
func attribute(traces string) (map[string]time.Duration, error) {
	by := map[string]time.Duration{}
	var value time.Duration
	pkg := ""
	inSample := false
	flush := func() {
		if !inSample || value < 0 {
			inSample = false
			return
		}
		if pkg == "" {
			pkg = "runtime"
		}
		by[pkg] += value
		inSample, pkg = false, ""
	}
	sc := bufio.NewScanner(strings.NewReader(traces))
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSample = true
			value = -1
			continue
		}
		fields := strings.Fields(line)
		if !inSample || len(fields) == 0 {
			continue
		}
		if value < 0 {
			// The sample's first line: "<value>   <leaf frame>".
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			value = d
			fields = fields[1:]
		}
		if pkg == "" {
			pkg = reproPackage(fields[0])
		}
	}
	flush()
	return by, sc.Err()
}

// reproPackage returns the package name of a repro/internal frame, or ""
// for any other frame.
func reproPackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, reproPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
