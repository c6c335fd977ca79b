package exec

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bundle"
	"repro/internal/prng"
	"repro/internal/types"
)

// TestMaterializeUsesPrefixCache: the first run computes, later runs (even
// on fresh workspaces) are served from the engine-level cache.
func TestMaterializeUsesPrefixCache(t *testing.T) {
	cat := testCatalog()
	cache := NewPrefixCache(8)

	newPlan := func() (*Workspace, Node) {
		ws := NewWorkspace(cat, prng.NewStream(1), 4)
		ws.Prefix = cache.Handle(7)
		scan, err := NewScan(cat, "means", "means")
		if err != nil {
			t.Fatal(err)
		}
		return ws, &Materialize{Child: scan, Fingerprint: "fp-means"}
	}

	ws1, m1 := newPlan()
	out1, err := runPlan(ws1, m1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) != 3 {
		t.Fatalf("out1 = %d tuples", len(out1))
	}
	if h, m, s := cache.Stats(); h != 0 || m != 1 || s != 1 {
		t.Fatalf("stats after first run: hits=%d misses=%d size=%d", h, m, s)
	}

	ws2, m2 := newPlan()
	out2, err := runPlan(ws2, m2)
	if err != nil {
		t.Fatal(err)
	}
	if h, _, _ := cache.Stats(); h != 1 {
		t.Fatalf("second run missed the cache")
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatalf("tuple %d not shared between runs", i)
		}
	}
}

// TestPrefixCacheEpochInvalidation: a handle from a later epoch never sees
// entries computed under an earlier one.
func TestPrefixCacheEpochInvalidation(t *testing.T) {
	cache := NewPrefixCache(8)
	tu := &bundle.Tuple{}
	compute := func() ([]*bundle.Tuple, error) { return []*bundle.Tuple{tu}, nil }

	if _, err := cache.Handle(1).Do("k", compute); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Handle(1).Do("k", compute); err != nil {
		t.Fatal(err)
	}
	if h, m, _ := cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("same-epoch stats: hits=%d misses=%d", h, m)
	}
	// DDL happened: epoch 2 must recompute.
	if _, err := cache.Handle(2).Do("k", compute); err != nil {
		t.Fatal(err)
	}
	if h, m, s := cache.Stats(); h != 1 || m != 2 || s != 1 {
		t.Fatalf("post-DDL stats: hits=%d misses=%d size=%d", h, m, s)
	}
}

// TestPrefixCacheLRUBound: the cache never holds more than cap entries.
func TestPrefixCacheLRUBound(t *testing.T) {
	cache := NewPrefixCache(2)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, err := cache.Handle(1).Do(key, func() ([]*bundle.Tuple, error) {
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, size := cache.Stats(); size != 2 {
		t.Fatalf("size = %d, want 2", size)
	}
	// Most recently used survive: k4 hits, k0 misses.
	hBefore, mBefore, _ := cache.Stats()
	if _, err := cache.Handle(1).Do("k4", func() ([]*bundle.Tuple, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if h, _, _ := cache.Stats(); h != hBefore+1 {
		t.Fatal("k4 should have been retained")
	}
	if _, err := cache.Handle(1).Do("k0", func() ([]*bundle.Tuple, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if _, m, _ := cache.Stats(); m != mBefore+1 {
		t.Fatal("k0 should have been evicted")
	}
}

// TestPrefixCacheSingleFlight: concurrent first computations of one key
// collapse into one compute; everyone shares the result.
func TestPrefixCacheSingleFlight(t *testing.T) {
	cache := NewPrefixCache(8)
	var mu sync.Mutex
	computes := 0
	gate := make(chan struct{})
	const workers = 8
	results := make([][]*bundle.Tuple, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := cache.Handle(3).Do("shared", func() ([]*bundle.Tuple, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-gate // hold every concurrent caller in the inflight path
				return []*bundle.Tuple{{}}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = out
		}(i)
	}
	close(gate)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	for i := 1; i < workers; i++ {
		if len(results[i]) != 1 || results[i][0] != results[0][0] {
			t.Fatalf("worker %d did not share the computed batch", i)
		}
	}
}

// TestScanStreamsCatalogRows: a streaming Scan's batches carry the
// catalog's immutable rows by reference (no copy), one batch at a time,
// in table order.
func TestScanStreamsCatalogRows(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 4)
	ws.BatchSize = 2 // force multiple batches over the 3-row table
	scan, err := NewScan(cat, "means", "a")
	if err != nil {
		t.Fatal(err)
	}
	it, err := scan.Open(ws)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	tbl, _ := cat.Get("means")
	row := 0
	for {
		b, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if len(b.Tuples) > ws.BatchSize {
			t.Fatalf("batch of %d tuples exceeds BatchSize %d", len(b.Tuples), ws.BatchSize)
		}
		for _, tu := range b.Tuples {
			// Scan shares the catalog rows themselves (no copy).
			if &tu.Det[0] != &tbl.Row(row)[0] {
				t.Fatalf("scan row %d copied instead of shared", row)
			}
			row++
		}
	}
	if row != tbl.NumRows() {
		t.Fatalf("streamed %d rows, table has %d", row, tbl.NumRows())
	}
}

// TestJoinOutputNeverAliasesCatalog: operators above Scan copy rows, so
// mutating query output can never corrupt catalog storage even though
// scans share it — the guard for Scan's sharing semantics.
func TestJoinOutputNeverAliasesCatalog(t *testing.T) {
	cat := testCatalog()
	ws := NewWorkspace(cat, prng.NewStream(1), 4)
	s1, err := NewScan(cat, "means", "a")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewScan(cat, "means", "b")
	if err != nil {
		t.Fatal(err)
	}
	join, err := NewHashJoin(s1, s2, []string{"a.cid"}, []string{"b.cid"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runPlan(ws, join)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("join output = %d tuples", len(out))
	}
	tbl, _ := cat.Get("means")
	before := make([]string, tbl.NumRows())
	for i := range before {
		before[i] = tbl.Row(i).String()
	}
	// Clobber every output row.
	for _, tu := range out {
		for j := range tu.Det {
			tu.Det[j] = typesPoison()
		}
	}
	for i := range before {
		if got := tbl.Row(i).String(); got != before[i] {
			t.Fatalf("catalog row %d corrupted by output mutation: %s -> %s", i, before[i], got)
		}
	}
}

// typesPoison returns a sentinel value used to clobber output rows.
func typesPoison() types.Value { return types.NewFloat(-987654321) }
