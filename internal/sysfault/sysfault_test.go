//go:build linux

package sysfault

import (
	"bytes"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// enumerate drives every site for n calls in a fixed round-robin
// order and renders the fired schedule — the determinism golden's
// canonical form.
func enumerate(inj *Injector, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		for s := Site(0); int(s) < NumSites; s++ {
			if d, ok := inj.Step(s); ok {
				b.WriteString(d.String())
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

const goldenPlan = "accept:emfile:0.2; write:short:0.1:len=3; write:econnreset:0.05; " +
	"sendfile:eio:0.15:after=4; connect:econnrefused:0.5:count=3; read:econnreset:0.08"

// The golden below pins the exact schedule seed 42 produces for the
// plan above over 24 calls per site. If it ever changes, replay of
// every recorded failure seed breaks — treat a diff here as an API
// break, not a test to update.
const goldenSeed42 = `accept[1] emfile
accept[2] emfile
connect[3] econnrefused
accept[4] emfile
sendfile[5] eio
connect[6] econnrefused
accept[7] emfile
connect[7] econnrefused
read[10] econnreset
accept[11] emfile
read[11] econnreset
read[13] econnreset
accept[15] emfile
write[16] short(3)
accept[21] emfile
`

func TestDeterminismGolden(t *testing.T) {
	got := enumerate(New(42, MustParsePlan(goldenPlan)...), 24)
	if got != goldenSeed42 {
		t.Errorf("seed-42 schedule drifted:\ngot:\n%s\nwant:\n%s", got, goldenSeed42)
	}
}

func TestSameSeedSameSchedule(t *testing.T) {
	rules := MustParsePlan(goldenPlan)
	a := enumerate(New(7, rules...), 50)
	b := enumerate(New(7, rules...), 50)
	if a != b {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	c := enumerate(New(8, rules...), 50)
	if a == c {
		t.Fatal("different seeds produced identical 50-call schedules")
	}
}

// Per-site streams are independently addressed: interleaving calls to
// OTHER sites must not perturb a site's own schedule.
func TestSiteStreamsIndependent(t *testing.T) {
	rules := MustParsePlan("write:econnreset:0.3")
	solo := New(99, rules...)
	var want []uint64
	for i := 0; i < 200; i++ {
		if d, ok := solo.Step(SiteWrite); ok {
			want = append(want, d.Index)
		}
	}
	mixed := New(99, rules...)
	var got []uint64
	for i := 0; i < 200; i++ {
		mixed.Step(SiteRead) // unrelated traffic on other sites
		mixed.Step(SiteAccept)
		if d, ok := mixed.Step(SiteWrite); ok {
			got = append(got, d.Index)
		}
		mixed.Step(SiteClose)
	}
	if len(got) != len(want) {
		t.Fatalf("schedule length changed under interleaving: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire %d moved: index %d vs %d", i, got[i], want[i])
		}
	}
}

func TestAfterAndCount(t *testing.T) {
	inj := New(1, MustParsePlan("accept:emfile:1:after=5:count=3")...)
	var fired []uint64
	for i := 0; i < 20; i++ {
		if d, ok := inj.Step(SiteAccept); ok {
			fired = append(fired, d.Index)
		}
	}
	if len(fired) != 3 || fired[0] != 5 || fired[1] != 6 || fired[2] != 7 {
		t.Fatalf("after=5:count=3 fired at %v, want [5 6 7]", fired)
	}
	st := inj.Stats()
	if st[SiteAccept].Calls != 20 || st[SiteAccept].Fires != 3 {
		t.Fatalf("stats = %+v, want 20 calls / 3 fires", st[SiteAccept])
	}
}

// socketpair returns a connected AF_UNIX pair for wrapper tests.
func socketpair(t *testing.T) (a, b int) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatalf("socketpair: %v", err)
	}
	t.Cleanup(func() {
		syscall.Close(fds[0])
		syscall.Close(fds[1])
	})
	return fds[0], fds[1]
}

func TestWrappersPassthroughWhenOff(t *testing.T) {
	Uninstall()
	a, b := socketpair(t)
	if _, err := Write(0, a, []byte("hello")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 16)
	n, err := Read(0, b, buf)
	if err != nil || string(buf[:n]) != "hello" {
		t.Fatalf("read = %q, %v", buf[:n], err)
	}
}

func TestWriteInjection(t *testing.T) {
	a, b := socketpair(t)

	// Short write: only the injected prefix reaches the kernel.
	Install(New(3, Rule{Site: SiteWrite, Prob: 1, Len: 2, Count: 1}))
	defer Uninstall()
	n, err := Write(0, a, []byte("hello"))
	if err != nil || n != 2 {
		t.Fatalf("short write = %d, %v; want 2, nil", n, err)
	}
	buf := make([]byte, 16)
	if n, _ := Read(0, b, buf); string(buf[:n]) != "he" {
		t.Fatalf("peer saw %q, want %q", buf[:n], "he")
	}

	// Errno injection: the syscall never runs.
	Install(New(3, Rule{Site: SiteWrite, Errno: syscall.ENOBUFS, Prob: 1}))
	if _, err := Write(0, a, []byte("x")); err != syscall.ENOBUFS {
		t.Fatalf("err = %v, want ENOBUFS", err)
	}
	Uninstall()
	if _, err := Write(0, a, []byte("!")); err != nil {
		t.Fatalf("post-uninstall write: %v", err)
	}
	if n, _ := Read(0, b, buf); string(buf[:n]) != "!" {
		t.Fatalf("peer saw %q after errno injection, want %q (nothing must have leaked)", buf[:n], "!")
	}
}

func TestSendfileErrnoLeavesOffsetUntouched(t *testing.T) {
	Install(New(5, Rule{Site: SiteSendfile, Errno: syscall.EIO, Prob: 1}))
	defer Uninstall()
	off := int64(7)
	// fds are never touched on the injected path, so invalid ones are fine.
	if _, err := Sendfile(0, -1, -1, &off, 100); err != syscall.EIO {
		t.Fatalf("err = %v, want EIO", err)
	}
	if off != 7 {
		t.Fatalf("offset moved to %d on an injected failure", off)
	}
}

func TestCloseAlwaysCloses(t *testing.T) {
	a, _ := socketpair(t)
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	syscall.Close(fds[1])
	Install(New(9, Rule{Site: SiteClose, Errno: syscall.EIO, Prob: 1}))
	defer Uninstall()
	if err := Close(0, fds[0]); err != syscall.EIO {
		t.Fatalf("err = %v, want injected EIO", err)
	}
	// The descriptor must really be gone despite the injected error.
	Uninstall()
	if err := syscall.Close(fds[0]); err != syscall.EBADF {
		t.Fatalf("second close = %v, want EBADF (fd leaked past injected close error)", err)
	}
	_ = a
}

func TestDecisionLogMatchesLiveWrappers(t *testing.T) {
	// The log recorded by live wrapper traffic must equal the offline
	// enumeration for the same seed and call pattern.
	plan := MustParsePlan("write:econnreset:0.25")
	live := New(21, plan...)
	Install(live)
	a, _ := socketpair(t)
	for i := 0; i < 40; i++ {
		_, _ = Write(0, a, []byte("x"))
	}
	Uninstall()

	offline := New(21, plan...)
	for i := 0; i < 40; i++ {
		offline.Step(SiteWrite)
	}
	lg, og := live.Decisions(), offline.Decisions()
	if len(lg) != len(og) {
		t.Fatalf("live fired %d, offline %d", len(lg), len(og))
	}
	for i := range lg {
		if lg[i] != og[i] {
			t.Fatalf("decision %d: live %v vs offline %v", i, lg[i], og[i])
		}
	}
}

// WriteMore is the same site as Write, not a new one: a call sequence
// that mixes the two must consume one (site, lane, index) stream —
// every call, whichever spelling, takes exactly the decision an offline
// StepLane replay predicts for its lane and position, and applies it
// the same way (errno before the syscall, short truncating the buffer).
// This is what lets a call site switch spellings without shifting any
// seeded schedule.
func TestWriteMoreSharesWriteStream(t *testing.T) {
	plan := MustParsePlan("write:short:0.2:len=3; write:enobufs:0.15")
	live := New(33, plan...)
	Install(live)
	defer Uninstall()
	offline := New(33, plan...)

	a, b := socketpair(t)
	msg := []byte("0123456789")
	var want []byte
	var shorts, errnos, moreCalls int
	for i := 0; i < 120; i++ {
		lane := Lane(i % 2)
		more := i%3 != 0 // out of step with the lane alternation
		wr := Write
		if more {
			wr = WriteMore
			moreCalls++
		}
		n, err := wr(lane, a, msg)
		d, fired := offline.StepLane(SiteWrite, lane)
		switch {
		case fired && d.Errno != 0:
			errnos++
			if err != d.Errno || n != 0 {
				t.Fatalf("call %d (more=%v): got %d, %v; replay says %v", i, more, n, err, d)
			}
		case fired:
			shorts++
			if err != nil || n != d.Len {
				t.Fatalf("call %d (more=%v): got %d, %v; replay says %v", i, more, n, err, d)
			}
		default:
			if err != nil || n != len(msg) {
				t.Fatalf("call %d (more=%v): got %d, %v; replay says no injection", i, more, n, err)
			}
		}
		want = append(want, msg[:n]...)
	}
	if shorts == 0 || errnos == 0 || moreCalls == 0 {
		t.Fatalf("vacuous: %d shorts, %d errnos, %d WriteMore calls", shorts, errnos, moreCalls)
	}
	for lane := Lane(0); lane < 2; lane++ {
		if lg, og := laneDecisions(live, lane), laneDecisions(offline, lane); !reflect.DeepEqual(lg, og) {
			t.Fatalf("lane %d: live %v vs offline %v", lane, lg, og)
		}
		if ls, os := live.LaneStats(lane), offline.LaneStats(lane); ls != os {
			t.Fatalf("lane %d accounting: live %+v vs offline %+v", lane, ls, os)
		}
	}
	if st := live.Stats(); st[SiteWrite].Calls != 120 {
		t.Fatalf("write site saw %d calls, want 120: WriteMore must count at SiteWrite and nowhere else (%+v)",
			st[SiteWrite].Calls, st)
	}

	// Exactly the accepted prefixes reached the peer, in order.
	Uninstall()
	got := make([]byte, 0, len(want))
	buf := make([]byte, 4096)
	for len(got) < len(want) {
		n, err := Read(0, b, buf)
		if err != nil || n == 0 {
			t.Fatalf("peer read after %d of %d bytes: %d, %v", len(got), len(want), n, err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer saw %d bytes that differ from the %d accepted", len(got), len(want))
	}
}

func BenchmarkWritePassthrough(b *testing.B) {
	Uninstall()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_DGRAM, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer syscall.Close(fds[0])
	defer syscall.Close(fds[1])
	buf := []byte("benchmark payload")
	drain := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Write(0, fds[0], buf); err != nil {
			b.Fatal(err)
		}
		_, _ = syscall.Read(fds[1], drain)
	}
}
