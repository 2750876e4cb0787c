package cache

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/compress"
	"repro/internal/csr"
)

// slowLoader wraps loadFrom with an atomic invocation counter and a delay
// wide enough that concurrently-started callers pile onto the first flight.
func slowLoader(src *csr.Tile, calls *atomic.Int64, delay time.Duration, failOn int64) func(dst *csr.Tile) (*csr.Tile, error) {
	inner := loadFrom(src)
	return func(dst *csr.Tile) (*csr.Tile, error) {
		n := calls.Add(1)
		time.Sleep(delay)
		if n == failOn {
			return nil, errors.New("injected load failure")
		}
		return inner(dst)
	}
}

// TestLoadIntoSingleFlight pins the duplicate-read guard: N concurrent
// loads of the same tile must issue exactly one underlying load, with every
// caller receiving the tile.
func TestLoadIntoSingleFlight(t *testing.T) {
	tiles := makeTiles(t, 4)
	c, err := New(1<<30, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	load := slowLoader(tiles[0], &calls, 100*time.Millisecond, 0)

	const n = 8
	start := make(chan struct{})
	results := make([]*csr.Tile, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var scratch csr.Tile
			<-start
			got, err := c.LoadInto(0, &scratch, load)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = got
		}(i)
	}
	close(start)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent loads invoked the loader %d times, want 1", n, got)
	}
	for i, got := range results {
		if got == nil || got.NumEdges() != tiles[0].NumEdges() {
			t.Fatalf("caller %d got a wrong tile", i)
		}
	}
	if _, ok := c.Get(0); !ok {
		t.Fatal("single-flighted tile was not admitted")
	}
}

// TestLoadIntoLeaderFailureRetries pins the error path: when the flight
// leader's load fails, exactly that caller sees the error and the waiters
// retry with a fresh load instead of inheriting the failure.
func TestLoadIntoLeaderFailureRetries(t *testing.T) {
	tiles := makeTiles(t, 4)
	c, err := New(1<<30, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	load := slowLoader(tiles[1], &calls, 100*time.Millisecond, 1) // first invocation fails

	const n = 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch csr.Tile
			<-start
			got, err := c.LoadInto(1, &scratch, load)
			if err != nil {
				failures.Add(1)
				return
			}
			if got.NumEdges() != tiles[1].NumEdges() {
				t.Error("retried load returned a wrong tile")
			}
		}()
	}
	close(start)
	wg.Wait()

	if got := failures.Load(); got != 1 {
		t.Fatalf("%d callers saw the leader's error, want exactly 1 (the leader)", got)
	}
	if got := calls.Load(); got < 2 || got > n {
		t.Fatalf("loader invoked %d times, want 2..%d (failed leader + retry)", got, n)
	}
}

// TestLoadIntoSharesCloneWhenNotAdmitted pins the declined-admission path:
// with the cache disabled nothing is ever resident, so waiters must receive
// a copy of the leader's tile, made into their own scratch while the leader
// holds its tile still, rather than re-reading or failing.
func TestLoadIntoSharesCloneWhenNotAdmitted(t *testing.T) {
	tiles := makeTiles(t, 4)
	c, err := New(0, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	load := slowLoader(tiles[2], &calls, 100*time.Millisecond, 0)

	const n = 4
	start := make(chan struct{})
	results := make([]*csr.Tile, n)
	scratches := make([]csr.Tile, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got, err := c.LoadInto(2, &scratches[i], load)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = got
		}(i)
	}
	close(start)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("loader invoked %d times, want 1", got)
	}
	// Every caller got the tile in its own scratch: the leader by decoding,
	// the waiters by copying the leader's decode.
	want := tiles[2].Encode()
	for i, got := range results {
		if got != &scratches[i] || !bytes.Equal(got.Encode(), want) {
			t.Fatalf("caller %d got a wrong tile or not its own scratch", i)
		}
	}
	if got := c.Stats().Entries; got != 0 {
		t.Fatalf("disabled cache retained %d entries", got)
	}
}

// TestContainsNoSideEffects pins the prefetcher's residency peek: Contains
// must not count as an access or touch recency.
func TestContainsNoSideEffects(t *testing.T) {
	tiles := makeTiles(t, 2)
	c, err := New(1<<30, compress.None)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(0, tiles[0]); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if !c.Contains(0) {
		t.Fatal("resident tile not reported")
	}
	if c.Contains(1) {
		t.Fatal("absent tile reported resident")
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("Contains moved the stats: %+v -> %+v", before, after)
	}
}
