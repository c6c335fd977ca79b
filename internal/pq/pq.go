// Package pq implements the disk-based priority queue the paper's
// GibbsLooper uses to order Gibbs tuples by TS-seed handle (paper §7).
// Entries are (key, payload) pairs; the queue keeps a bounded in-memory
// heap and spills sorted runs to a temporary file when the bound is
// exceeded, merging runs with the heap on pop — "essentially merging Gibbs
// tuples in the disk-based priority queue with a sorted file containing
// all of the TS-seeds".
//
// The engine no longer calls it: the looper holds its Gibbs tuples in
// memory and walks a seed-to-tuple index instead (internal/gibbs). The
// package stays for the benchmark harness's queue probe.
package pq

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
)

// Entry is one queued item: a sort key (TS-seed handle; the paper uses
// "infinity" = MaxKey to push fully-processed tuples to the tail) and an
// opaque payload (a tuple index).
type Entry struct {
	Key     uint64
	Payload uint64
}

// MaxKey is the "infinity" key from the paper's Appendix A.
const MaxKey = ^uint64(0)

// Queue is a min-priority queue of Entries with disk spilling. The zero
// value is not usable; call New. Queue is not safe for concurrent use.
type Queue struct {
	memLimit int
	mem      entryHeap
	runs     []*run
	spillDir string
	size     int
}

// New returns a queue that holds at most memLimit entries in memory,
// spilling sorted runs to files in dir ("" = os.TempDir()) beyond that.
// memLimit <= 0 selects a default of 1<<16 entries.
func New(memLimit int, dir string) *Queue {
	if memLimit <= 0 {
		memLimit = 1 << 16
	}
	return &Queue{memLimit: memLimit, spillDir: dir}
}

// Len returns the number of queued entries.
func (q *Queue) Len() int { return q.size }

// Push inserts an entry, spilling the in-memory heap to disk when full.
func (q *Queue) Push(e Entry) error {
	if q.mem.Len() >= q.memLimit {
		if err := q.spill(); err != nil {
			return err
		}
	}
	heap.Push(&q.mem, e)
	q.size++
	return nil
}

// Peek returns the minimum entry without removing it.
func (q *Queue) Peek() (Entry, bool) {
	if q.size == 0 {
		return Entry{}, false
	}
	best, ok := q.memMin()
	for _, r := range q.runs {
		if e, rok := r.peek(); rok && (!ok || less(e, best)) {
			best, ok = e, true
		}
	}
	return best, ok
}

// Pop removes and returns the minimum entry.
func (q *Queue) Pop() (Entry, error) {
	if q.size == 0 {
		return Entry{}, fmt.Errorf("pq: Pop on empty queue")
	}
	src := -1 // -1 = memory heap
	best, ok := q.memMin()
	for i, r := range q.runs {
		if e, rok := r.peek(); rok && (!ok || less(e, best)) {
			best, ok, src = e, true, i
		}
	}
	if !ok {
		return Entry{}, fmt.Errorf("pq: internal inconsistency, size %d but no entries", q.size)
	}
	if src == -1 {
		heap.Pop(&q.mem)
	} else {
		if err := q.runs[src].advance(); err != nil {
			return Entry{}, err
		}
	}
	q.size--
	q.compactRuns()
	return best, nil
}

// PopAllWithKey removes and returns every entry whose key equals the
// current minimum key; the looper processes all Gibbs tuples associated
// with one TS-seed at a time.
func (q *Queue) PopAllWithKey() (key uint64, payloads []uint64, err error) {
	first, err := q.Pop()
	if err != nil {
		return 0, nil, err
	}
	key = first.Key
	payloads = append(payloads, first.Payload)
	for {
		e, ok := q.Peek()
		if !ok || e.Key != key {
			return key, payloads, nil
		}
		if _, err := q.Pop(); err != nil {
			return 0, nil, err
		}
		payloads = append(payloads, e.Payload)
	}
}

// Drain empties the queue, returning all entries in ascending key order.
func (q *Queue) Drain() ([]Entry, error) {
	out := make([]Entry, 0, q.size)
	for q.size > 0 {
		e, err := q.Pop()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// Reset discards all entries and removes spill files.
func (q *Queue) Reset() {
	q.mem = q.mem[:0]
	for _, r := range q.runs {
		r.close()
	}
	q.runs = nil
	q.size = 0
}

// SpilledRuns reports how many disk runs currently back the queue; exposed
// for tests and instrumentation.
func (q *Queue) SpilledRuns() int { return len(q.runs) }

func (q *Queue) memMin() (Entry, bool) {
	if q.mem.Len() == 0 {
		return Entry{}, false
	}
	return q.mem[0], true
}

func (q *Queue) spill() error {
	entries := make([]Entry, len(q.mem))
	copy(entries, q.mem)
	sort.Slice(entries, func(i, j int) bool { return less(entries[i], entries[j]) })
	f, err := os.CreateTemp(q.spillDir, "mcdbr-pq-*.run")
	if err != nil {
		return fmt.Errorf("pq: create spill file: %w", err)
	}
	// Unlink immediately; the open descriptor keeps the data alive and the
	// file vanishes even if the process dies.
	name := f.Name()
	defer os.Remove(name)
	bw := bufio.NewWriter(f)
	for _, e := range entries {
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[0:8], e.Key)
		binary.LittleEndian.PutUint64(buf[8:16], e.Payload)
		if _, err := bw.Write(buf[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	r := &run{f: f, br: bufio.NewReader(f), remaining: len(entries)}
	if err := r.advance(); err != nil {
		return err
	}
	q.runs = append(q.runs, r)
	q.mem = q.mem[:0]
	return nil
}

func (q *Queue) compactRuns() {
	out := q.runs[:0]
	for _, r := range q.runs {
		if _, ok := r.peek(); ok {
			out = append(out, r)
		} else {
			r.close()
		}
	}
	q.runs = out
}

func less(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Payload < b.Payload
}

type entryHeap []Entry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return less(h[i], h[j]) }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)        { *h = append(*h, x.(Entry)) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// run is one sorted spill file being consumed front to back.
type run struct {
	f         *os.File
	br        *bufio.Reader
	head      Entry
	valid     bool
	remaining int
}

func (r *run) peek() (Entry, bool) { return r.head, r.valid }

// advance loads the next entry into head (or marks the run exhausted).
func (r *run) advance() error {
	if r.remaining == 0 {
		r.valid = false
		return nil
	}
	var buf [16]byte
	if _, err := io.ReadFull(r.br, buf[:]); err != nil {
		return fmt.Errorf("pq: read spill run: %w", err)
	}
	r.head = Entry{Key: binary.LittleEndian.Uint64(buf[0:8]), Payload: binary.LittleEndian.Uint64(buf[8:16])}
	r.remaining--
	r.valid = true
	return nil
}

func (r *run) close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
	r.valid = false
}
