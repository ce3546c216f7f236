//go:build linux

package docroot

import "repro/internal/invariant"

// The bounded-byte LRU behind Root. One mutex guards the map, the
// intrusive list, and the byte accounting; the entries themselves are
// immutable after construction and reference counted, so eviction never
// races an in-flight response — it merely drops the cache's reference
// and the fd closes when the last response releases its own.

// lruNode is an intrusive doubly-linked list node, embedded in its
// Entry (head sentinel in Root). Intrusive rather than container/list
// so a hit is two pointer swaps and zero allocations, and embedded so
// an insert allocates nothing beyond the Entry either.
type lruNode struct {
	ent        *Entry
	prev, next *lruNode
}

func (n *lruNode) unlink() {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

func (r *Root) pushFront(n *lruNode) {
	n.next = r.head.next
	n.prev = &r.head
	r.head.next.prev = n
	r.head.next = n
}

// cacheGet returns a referenced entry on hit, nil on miss.
//
//nio:hot
func (r *Root) cacheGet(key string) *Entry {
	r.mu.Lock()
	e, ok := r.items[key]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	e.lru.unlink()
	r.pushFront(&e.lru)
	refs := e.refs.Add(1)
	r.mu.Unlock()
	if invariant.Enabled {
		// The cache holds one reference, this caller now holds another.
		invariant.Assertf(refs >= 2,
			"docroot: cache hit on entry %q with %d refs (cache reference lost)", e.key, refs)
	}
	r.hits.Inc()
	return e
}

// cacheInsert offers a freshly opened entry (caller holds one reference)
// to the cache and returns the entry the caller should use. If another
// goroutine cached the same key while this one was opening the file, the
// duplicate is discarded in favour of the cached copy. Entries whose
// charge exceeds the whole budget are served uncached.
func (r *Root) cacheInsert(e *Entry) *Entry {
	if e.charge > r.cfg.CacheBytes {
		return e
	}
	r.mu.Lock()
	if cached, ok := r.items[e.key]; ok {
		// Lost the open race: adopt the cached entry.
		cached.lru.unlink()
		r.pushFront(&cached.lru)
		cached.refs.Add(1)
		r.mu.Unlock()
		e.Release()
		return cached
	}
	e.refs.Add(1) // the cache's reference
	r.items[e.key] = e
	r.pushFront(&e.lru)
	r.used += e.charge
	var evicted *lruNode
	for r.used > r.cfg.CacheBytes {
		if tail := r.head.prev; tail == &r.head || tail == &e.lru {
			break // cannot happen while charge <= budget; belt and braces
		}
		evicted = r.evictTail(evicted)
	}
	if invariant.Enabled {
		invariant.Assertf(r.used >= 0,
			"docroot: cache byte accounting went negative (%d)", r.used)
	}
	r.mu.Unlock()
	r.releaseEvicted(evicted)
	return e
}

// evictTail takes the least recently used entry out of the cache and
// returns it at the front of chain. An evicted entry never re-enters
// the list (a later Get of its key opens a new Entry), so its next link
// is free to carry the chain and evicting allocates nothing. Caller
// holds r.mu and has checked the list is not empty.
func (r *Root) evictTail(chain *lruNode) *lruNode {
	tail := r.head.prev
	tail.unlink()
	delete(r.items, tail.ent.key)
	r.used -= tail.ent.charge
	tail.next = chain
	return tail
}

// releaseEvicted drops the cache's reference on every entry of an
// evictTail chain — outside r.mu, since the last reference closes the
// fd — and returns how many there were.
func (r *Root) releaseEvicted(chain *lruNode) int {
	n := 0
	for chain != nil {
		ev := chain.ent
		chain, ev.lru.next = ev.lru.next, nil
		r.evictions.Inc()
		ev.Release() // fd closes once the responses holding it finish
		n++
	}
	return n
}

// ShedFDs evicts up to n least-recently-used entries regardless of the
// byte budget and returns how many it dropped — the fd-pressure valve:
// every cached entry pins an open file descriptor, so when accept(2) or
// a miss's open(2) reports EMFILE the server can trade cache warmth for
// descriptor slots. Entries still referenced by in-flight responses
// only lose the cache's reference here; their fds close when the last
// response finishes, exactly as with budget eviction.
func (r *Root) ShedFDs(n int) int {
	r.mu.Lock()
	var evicted *lruNode
	for ; n > 0 && r.head.prev != &r.head; n-- {
		evicted = r.evictTail(evicted)
	}
	if invariant.Enabled {
		invariant.Assertf(r.used >= 0,
			"docroot: cache byte accounting went negative (%d) after pressure shed", r.used)
	}
	r.mu.Unlock()
	shed := r.releaseEvicted(evicted)
	r.pressure.Add(int64(shed))
	return shed
}
