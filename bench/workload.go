package main

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/surge"
)

// idKind selects which objects a workload requests.
type idKind int

const (
	idsSmall idKind = iota // size <= smallMax, uniform
	idsLarge               // size >= largeMin, uniform
	idsZipf                // whole set, SURGE Zipf popularity
)

const (
	smallMax = 2 << 10
	largeMin = 64 << 10
)

// serverKind selects the serving path under test.
type serverKind int

const (
	srvNio serverKind = iota
	srvMT
	srvProxy // nioproxy in front of one nioserver
)

// workload is one traffic mix against one serving path. The table below
// is the whole definition: no flag changes any field.
type workload struct {
	name   string
	why    string
	server serverKind
	ids    idKind
	// batch is how many requests a connection writes back to back
	// before reading the replies (1 = one request in flight).
	batch int
	// churn sends "Connection: close" and dials a new TCP connection
	// for every request.
	churn bool
	// docroot serves real files through the bounded content cache
	// instead of the in-memory store.
	docroot bool
}

// docrootCacheBytes is about 1/7 of the default SURGE set (~30 MB), so
// nio_docroot_mix has a working set larger than the program's own cache.
const docrootCacheBytes = 4 << 20

var workloads = []workload{
	{name: "nio_small", server: srvNio, ids: idsSmall, batch: 1,
		why: "keep-alive small objects, one in flight: per-request fixed cost (wake, parse, serialize, two writes) is everything"},
	{name: "nio_pipelined", server: srvNio, ids: idsSmall, batch: 8,
		why: "batches of 8 pipelined requests: syscalls and wakes amortised 8x, so parse, serialize and handler dominate"},
	{name: "nio_large", server: srvNio, ids: idsLarge, batch: 1,
		why: "objects of 64 KiB and more: byte moving dominates and parse cost is noise, the control for httpwire work"},
	{name: "nio_churn", server: srvNio, ids: idsSmall, batch: 1, churn: true,
		why: "Connection: close, a new TCP connection per request: accept, conn allocation, epoll_ctl and close per reply"},
	{name: "mt_small", server: srvMT, ids: idsSmall, batch: 1,
		why: "the paper's thread-pool baseline under nio_small traffic: shares only httpwire with nio"},
	{name: "proxy_small", server: srvProxy, ids: idsSmall, batch: 1,
		why: "nioproxy in front of nioserver under nio_small traffic: the relay path and upstream pool"},
	{name: "nio_docroot_mix", server: srvNio, ids: idsZipf, batch: 1, docroot: true,
		why: "disk docroot with a cache of 1/7 of the set, Zipf ids: hits, sendfile misses and eviction churn"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// objectSetSeed is the SURGE seed every server is started with. The
// population is part of the workload definitions, not of the run: its 60
// large objects are 60 draws from a Pareto(1.3) tail, so their mean size
// — and with it nio_large's replies/s — moved by 54 % (interquartile
// range over median) across ten object-set seeds, and the Zipf head of
// nio_docroot_mix landed on different sizes each time. -seed therefore
// varies what a run is allowed to vary without changing the workload:
// the request streams. The servers get this seed as a flag and build the
// same set themselves.
const objectSetSeed = 7

func streamSeed(seed uint64) uint64 { return seed ^ 0x62656e6368 } // "bench"

// objects is the driver's own copy of what the servers serve: the SURGE
// set for sizes and popularity, and the store for body bytes.
type objects struct {
	cfg     surge.Config
	setSeed uint64
	set     *surge.ObjectSet
	store   *core.SurgeStore
	small   []int
	large   []int
	// Wire form of the GET for each object id, keep-alive and
	// "Connection: close"; read-only, shared by every connection.
	reqKeepAlive, reqClose [][]byte
}

// buildObjects reproduces what a server started with -seed setSeed serves.
func buildObjects(setSeed uint64) (*objects, error) {
	cfg := surge.DefaultConfig()
	set, err := surge.BuildObjectSet(cfg, dist.NewRNG(setSeed))
	if err != nil {
		return nil, fmt.Errorf("building object set: %w", err)
	}
	o := &objects{
		cfg:     cfg,
		setSeed: setSeed,
		set:     set,
		// setSeed+1 is the blob seed both server mains derive from -seed.
		store: core.NewSurgeStore(set, cfg.MaxObjectBytes, setSeed+1),
	}
	for i := 0; i < set.Len(); i++ {
		o.reqKeepAlive = append(o.reqKeepAlive, requestBytes(i, false))
		o.reqClose = append(o.reqClose, requestBytes(i, true))
		switch size := set.Object(i).Size; {
		case size <= smallMax:
			o.small = append(o.small, i)
		case size >= largeMin:
			o.large = append(o.large, i)
		}
	}
	if len(o.small) == 0 || len(o.large) == 0 {
		return nil, fmt.Errorf("object-set seed %d yields %d small and %d large objects; both classes must be non-empty",
			setSeed, len(o.small), len(o.large))
	}
	return o, nil
}

// body returns the bytes object id must be served with.
func (o *objects) body(id int) []byte {
	b, _, ok := o.store.Get(objPath(id))
	if !ok {
		panic("bench: object id outside the set: " + strconv.Itoa(id))
	}
	return b
}

func objPath(id int) string { return "/obj/" + strconv.Itoa(id) }

// picker draws one connection's request stream.
type picker struct {
	o    *objects
	kind idKind
	rng  *dist.RNG
}

func (p *picker) next() int {
	switch p.kind {
	case idsSmall:
		return p.o.small[p.rng.Intn(len(p.o.small))]
	case idsLarge:
		return p.o.large[p.rng.Intn(len(p.o.large))]
	default:
		return p.o.set.Pick(p.rng).ID
	}
}

// requestBytes returns the wire form of a GET for id.
func requestBytes(id int, closeAfter bool) []byte {
	b := []byte("GET " + objPath(id) + " HTTP/1.1\r\nHost: bench\r\n")
	if closeAfter {
		b = append(b, "Connection: close\r\n"...)
	}
	return append(b, "\r\n"...)
}
