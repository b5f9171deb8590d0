package engine

import (
	"sync"
	"sync/atomic"
)

// Cache memoizes keyed computations with single-flight semantics: the first
// caller of a key runs the work, concurrent callers of the same key block
// and share the one in-flight result, and later callers get the stored
// value without recomputing. Only successful results are stored — a failed
// computation is reported to every caller that shared the flight and then
// forgotten, so a transient error (a cancelled context, say) never poisons
// the key. The zero value is ready to use.
type Cache[T any] struct {
	mu sync.Mutex
	m  map[string]*cacheEntry[T]
}

type cacheEntry[T any] struct {
	once sync.Once
	val  T
	err  error
	// done flips to true after val/err are set inside once.Do: the atomic
	// store/load pair gives Lookup a happens-before edge to val without
	// taking once's lock.
	done atomic.Bool
}

// Do returns the cached value for key, computing it with fn on a miss.
// hit reports whether the value came from the cache (including joining a
// flight another caller started) rather than this caller's own fn run.
func (c *Cache[T]) Do(key string, fn func() (T, error)) (val T, err error, hit bool) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*cacheEntry[T])
	}
	e, ok := c.m[key]
	if !ok {
		e = &cacheEntry[T]{}
		c.m[key] = e
	}
	c.mu.Unlock()

	computed := false
	e.once.Do(func() {
		e.val, e.err = fn()
		computed = true
		if e.err != nil {
			c.mu.Lock()
			if c.m[key] == e {
				delete(c.m, key)
			}
			c.mu.Unlock()
		}
		e.done.Store(true)
	})
	return e.val, e.err, !computed
}

// Lookup returns the stored value for key without computing anything.
// In-flight and failed entries miss — Lookup never blocks on another
// caller's computation.
func (c *Cache[T]) Lookup(key string) (T, bool) {
	c.mu.Lock()
	e := c.m[key]
	c.mu.Unlock()
	if e == nil || !e.done.Load() || e.err != nil {
		var zero T
		return zero, false
	}
	return e.val, true
}

// Reset drops every entry.
func (c *Cache[T]) Reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// Len returns the number of stored entries, counting in-flight ones.
func (c *Cache[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
