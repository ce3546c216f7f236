package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/docroot"
	"repro/internal/httpwire"
	"repro/internal/obs"
	"repro/internal/reactor"
	"repro/internal/sysfault"
)

// Layer replay: each layer's public functions on the workload's own
// request and response bytes, single goroutine, no server. These are the
// unit costs the budget table multiplies by calls per reply.

const (
	replayBatches = 5
	// replayOps is the size of one batch: 5 x 40 000 = 200 000 ops per
	// function. Ops that make three or more syscalls run replaySlowOps
	// per batch so the traced pass stays inside its time budget.
	replayOps     = 40000
	replaySlowOps = 8000
	// replayCycle is how many distinct requests an op cycles through, so
	// branch predictors and caches see the workload's variety, not one id.
	replayCycle = 64
)

// measureOp runs fn in replayBatches batches of n and returns the median
// batch's ns and allocations per op.
func measureOp(n int, fn func(i int)) (ns, allocs float64) {
	var nss, als []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < replayBatches; b++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d)/float64(n))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(nss), median(als)
}

// replayInputs are the bytes the replay feeds the layers.
type replayInputs struct {
	ids      []int
	paths    []string
	requests [][]byte // one request each
	batches  [][]byte // 8 requests back to back
	replies  [][]byte // head + body as the server sends them
	parsed   []*httpwire.Request
}

func buildReplayInputs(w workload, objs *objects, seed uint64) (*replayInputs, error) {
	in := &replayInputs{}
	pk := picker{o: objs, kind: w.ids, rng: dist.NewRNG(streamSeed(seed))}
	var p httpwire.Parser
	for i := 0; i < replayCycle; i++ {
		id := pk.next()
		in.ids = append(in.ids, id)
		in.paths = append(in.paths, objPath(id))
		in.requests = append(in.requests, requestBytes(id, w.churn))
		body := objs.body(id)
		// Replies are capped at 64 KiB of body: RespParser cost is
		// per byte there, and the cap keeps nio_large's replay bounded.
		if len(body) > 64<<10 {
			body = body[:64<<10]
		}
		head := httpwire.AppendResponseHeader(nil, 200, "application/octet-stream", int64(len(body)), !w.churn)
		in.replies = append(in.replies, append(head, body...))
		reqs, err := p.Feed(nil, in.requests[i])
		if err != nil || len(reqs) != 1 {
			return nil, fmt.Errorf("replay: request for object %d did not parse: %v", id, err)
		}
		in.parsed = append(in.parsed, reqs[0])
	}
	for i := 0; i < replayCycle; i++ {
		var b []byte
		for j := 0; j < 8; j++ {
			b = append(b, in.requests[(i+j)%replayCycle]...)
		}
		in.batches = append(in.batches, b)
	}
	return in, nil
}

// sink keeps results alive so the compiler cannot drop the calls.
var sink int

// layerReplay fills m with the replay metrics for w.
func layerReplay(w workload, objs *objects, seed uint64, tmpRoot string, m metrics) error {
	in, err := buildReplayInputs(w, objs, seed)
	if err != nil {
		return err
	}

	// httpwire: request parse, one request per Feed and eight per Feed.
	var p httpwire.Parser
	var reqs []*httpwire.Request
	m["httpwire.parse_ns"], m["httpwire.parse_allocs"] = measureOp(replayOps, func(i int) {
		reqs, _ = p.Feed(reqs[:0], in.requests[i%replayCycle])
		sink += len(reqs)
	})
	batchNS, _ := measureOp(replayOps/8, func(i int) {
		reqs, _ = p.Feed(reqs[:0], in.batches[i%replayCycle])
		sink += len(reqs)
	})
	m["httpwire.parse_batch8_ns"] = batchNS / 8 // per request, comparable with parse_ns

	// httpwire: response head serialization.
	var head []byte
	m["httpwire.serialize_ns"], m["httpwire.serialize_allocs"] = measureOp(replayOps, func(i int) {
		id := in.ids[i%replayCycle]
		head = httpwire.AppendResponseHeader(head[:0], 200, "application/octet-stream", objs.set.Object(id).Size, !w.churn)
		sink += len(head)
	})

	// httpwire: the relay path — response parse, header rewrite.
	var rp httpwire.RespParser
	var resps []*httpwire.Response
	m["httpwire.respparse_ns"], m["httpwire.respparse_allocs"] = measureOp(replayOps, func(i int) {
		resps, _ = rp.Feed(resps[:0], in.replies[i%replayCycle])
		sink += len(resps)
	})
	var up []byte
	m["httpwire.forward_ns"], m["httpwire.forward_allocs"] = measureOp(replayOps, func(i int) {
		r := in.parsed[i%replayCycle]
		h := httpwire.ForwardHeaders(r, "1.1 nioproxy", "127.0.0.1")
		up = httpwire.AppendRequestHead(up[:0], r.Method, r.Path, r.Proto, h)
		sink += len(up)
	})

	// core: the in-memory store lookup.
	m["core.store_get_ns"], _ = measureOp(replayOps, func(i int) {
		b, _, _ := objs.store.Get(in.paths[i%replayCycle])
		sink += len(b)
	})

	if err := replayDocroot(in, objs, tmpRoot, m); err != nil {
		return err
	}
	if err := replayReactor(m); err != nil {
		return err
	}

	// obs: one Record on a shard view, as the loop does per phase.
	view := obs.NewPlane(1 << 14).View(0)
	m["obs.record_ns"], m["obs.record_allocs"] = measureOp(replayOps, func(i int) {
		view.Record(uint64(i), obs.Handler, 5*time.Microsecond)
	})

	return replaySysfault(m)
}

// replayDocroot measures Root.Get on a small materialised set: a hit
// (cache large enough for everything) and a miss (cache disabled, so
// every Get opens the file).
func replayDocroot(in *replayInputs, objs *objects, tmpRoot string, m metrics) error {
	dir, err := os.MkdirTemp(tmpRoot, "replay-docroot-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Only the cycle's objects are needed; materialise a set holding
	// them under their own ids by writing the files directly.
	objDir := filepath.Join(dir, "obj")
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		return err
	}
	for _, id := range in.ids {
		if err := os.WriteFile(filepath.Join(objDir, fmt.Sprint(id)), objs.body(id), 0o644); err != nil {
			return err
		}
	}
	hot, err := docroot.Open(dir, 1<<30)
	if err != nil {
		return err
	}
	defer hot.ShedFDs(1 << 30)
	get := func(r *docroot.Root) func(int) {
		return func(i int) {
			e, err := r.Get(in.paths[i%replayCycle])
			if err != nil {
				panic(err) // the file was written a moment ago
			}
			sink += e.FD()
			e.Release()
		}
	}
	m["docroot.get_hit_ns"], m["docroot.get_allocs"] = measureOp(replayOps, get(hot))
	cold, err := docroot.Open(dir, 0)
	if err != nil {
		return err
	}
	m["docroot.get_miss_ns"], _ = measureOp(replaySlowOps, get(cold))
	return nil
}

// replayReactor measures the poller: a wake over a socketpair, interest
// add/remove, and accept+close.
func replayReactor(m metrics) error {
	p, err := reactor.NewPoller(64)
	if err != nil {
		return err
	}
	defer p.Close()
	sp, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return fmt.Errorf("socketpair: %w", err)
	}
	defer syscall.Close(sp[0])
	defer syscall.Close(sp[1])
	if err := p.Add(sp[1], true, false); err != nil {
		return err
	}
	one := []byte{1}
	buf := make([]byte, 16<<10)
	// Write -> Wait -> Read: what one request costs the loop before any
	// HTTP work, with the fd already readable when Wait is entered.
	m["reactor.wait_dispatch_ns"], m["reactor.wait_allocs"] = measureOp(replayOps, func(int) {
		if _, _, err := reactor.Write(0, sp[0], one); err != nil {
			panic(err)
		}
		evs, err := p.Wait(-1)
		if err != nil || len(evs) != 1 {
			panic(fmt.Sprintf("reactor replay: Wait = %d events, %v", len(evs), err))
		}
		n, _, _, _ := reactor.Read(0, evs[0].FD, buf)
		sink += n
	})
	p.Remove(sp[1])
	m["reactor.add_remove_ns"], _ = measureOp(replayOps, func(int) {
		if err := p.Add(sp[1], true, false); err != nil {
			panic(err)
		}
		p.Remove(sp[1])
	})

	// Accept + close. The connect that makes a connection pending is the
	// client's cost, so only the server's two calls are timed.
	lfd, port, err := reactor.Listen(0, 128)
	if err != nil {
		return err
	}
	defer syscall.Close(lfd)
	sa := &syscall.SockaddrInet4{Port: port, Addr: [4]byte{127, 0, 0, 1}}
	var nss []float64
	for b := 0; b < replayBatches; b++ {
		var spent time.Duration
		for i := 0; i < replaySlowOps; i++ {
			cfd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
			if err != nil {
				return fmt.Errorf("socket: %w", err)
			}
			if err := syscall.Connect(cfd, sa); err != nil {
				syscall.Close(cfd)
				return fmt.Errorf("connect: %w", err)
			}
			t0 := time.Now()
			fd, _, err := reactor.Accept(0, lfd)
			if err != nil || fd < 0 {
				syscall.Close(cfd)
				return fmt.Errorf("reactor replay: accept = %d, %v", fd, err)
			}
			reactor.CloseFD(0, fd)
			spent += time.Since(t0)
			syscall.Close(cfd)
		}
		nss = append(nss, float64(spent)/replaySlowOps)
	}
	m["reactor.accept_close_ns"] = median(nss)
	return nil
}

// replaySysfault measures what the seam adds to a read(2): the wrapper
// with a rule-less injector installed (counting every call, firing
// none) minus the bare syscall.
func replaySysfault(m metrics) error {
	zero, err := os.Open("/dev/zero")
	if err != nil {
		return err
	}
	defer zero.Close()
	fd := int(zero.Fd())
	var b [1]byte
	bare, _ := measureOp(replayOps, func(int) {
		n, _ := syscall.Read(fd, b[:])
		sink += n
	})
	prev := sysfault.Active()
	sysfault.Install(sysfault.New(1))
	wrapped, _ := measureOp(replayOps, func(int) {
		n, _ := sysfault.Read(0, fd, b[:])
		sink += n
	})
	sysfault.Install(prev)
	m["sysfault.passthrough_ns"] = wrapped - bare
	return nil
}
