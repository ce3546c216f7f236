package main

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// Captured from a live nioserver; the command name is edited to hold a
// space and parentheses, which is why fields are counted from the last ')'.
const statFixture = `8123 (nio server) (x)) S 8100 8123 8100 0 -1 4194560 1406 0 0 0 117 342 0 0 20 0 7 0 925431 1268416512 3530 18446744073709551615 4194304 7030301 140725745612336 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0 10764288 10996896 31223808 140725745617372 140725745617441 140725745617441 140725745618919 0
`

func TestParseStat(t *testing.T) {
	u, s, err := parseStat([]byte(statFixture))
	if err != nil || u != 117 || s != 342 {
		t.Errorf("parseStat = %d, %d, %v; want 117, 342, nil", u, s, err)
	}
	for _, bad := range []string{"", "8123 nioserver S 1 2", "8123 (x) S 1 2 3", "8123 (x) S 8100 8123 8100 0 -1 4194560 1406 0 0 0 u 342 0"} {
		if _, _, err := parseStat([]byte(bad)); err == nil {
			t.Errorf("parseStat(%q) accepted", bad)
		}
	}
}

func TestParseSchedstat(t *testing.T) {
	ns, err := parseSchedstat([]byte("4590123456 70530 2113\n"))
	if err != nil || ns != 4590123456 {
		t.Errorf("parseSchedstat = %d, %v", ns, err)
	}
	for _, bad := range []string{"", "\n", "x 1 2"} {
		if _, err := parseSchedstat([]byte(bad)); err == nil {
			t.Errorf("parseSchedstat(%q) accepted", bad)
		}
	}
}

const statusFixture = `Name:	nioserver
Umask:	0022
State:	S (sleeping)
Tgid:	8123
Pid:	8123
VmPeak:	 1238688 kB
VmSize:	 1238688 kB
VmHWM:	   14120 kB
VmRSS:	   13992 kB
Threads:	7
voluntary_ctxt_switches:	20417
nonvoluntary_ctxt_switches:	312
`

func TestParseStatus(t *testing.T) {
	s, err := parseStatus([]byte(statusFixture))
	if err != nil {
		t.Fatal(err)
	}
	if s.vmHWMKiB != 14120 || s.ctxVoluntary != 20417 || s.ctxForced != 312 {
		t.Errorf("parseStatus = %+v", s)
	}
	if _, err := parseStatus([]byte("VmHWM:\t  lots kB\n")); err == nil {
		t.Error("non-numeric VmHWM accepted")
	}
	if _, err := parseStatus([]byte("VmHWM:\n")); err == nil {
		t.Error("empty VmHWM accepted")
	}
	// A kernel thread has no Vm lines; that is not an error.
	if s, err := parseStatus([]byte("Name:\tkthreadd\nvoluntary_ctxt_switches:\t5\n")); err != nil || s.ctxVoluntary != 5 {
		t.Errorf("status without VmHWM: %+v, %v", s, err)
	}
}

const ioFixture = `rchar: 81234567
wchar: 91234567
syscr: 402113
syscw: 402009
read_bytes: 0
write_bytes: 0
cancelled_write_bytes: 0
`

func TestParseIO(t *testing.T) {
	io, err := parseIO([]byte(ioFixture))
	if err != nil || io.syscr != 402113 || io.syscw != 402009 {
		t.Errorf("parseIO = %+v, %v", io, err)
	}
	if _, err := parseIO([]byte("rchar: 1\nsyscr: 2\n")); err == nil {
		t.Error("io without syscw accepted")
	}
	if _, err := parseIO([]byte("syscr: two\nsyscw: 2\n")); err == nil {
		t.Error("non-numeric syscr accepted")
	}
}

func TestCPUTotalPrefersSchedstat(t *testing.T) {
	if got := (cpuTimes{runNS: 123456789, utimeTicks: 5, stimeTicks: 5}).total(); got != 123456789 {
		t.Errorf("total with schedstat = %d", got)
	}
	if got := (cpuTimes{utimeTicks: 3, stimeTicks: 4}).total(); got != 7*nsPerTick {
		t.Errorf("total from ticks = %d, want %d", got, 7*nsPerTick)
	}
}

func TestBannerAddr(t *testing.T) {
	for _, tc := range []struct {
		line, marker, want string
	}{
		{"nio server listening on 127.0.0.1:32875 (1 shards, reuseport accept, 2000 objects, mean 13192 B)", "listening on ", "127.0.0.1:32875"},
		{"thread-pool server listening on 127.0.0.1:4000 (64 threads, keep-alive 15s)", "listening on ", "127.0.0.1:4000"},
		{"nioproxy listening on 127.0.0.1:18000 (1 shards, reuseport accept, least over b0(127.0.0.1:1))", "listening on ", "127.0.0.1:18000"},
		{"admin endpoint on http://127.0.0.1:34275 (/stats /trace /debug/pprof/)", "admin endpoint on http://", "127.0.0.1:34275"},
		{"listening on 127.0.0.1:80", "listening on ", "127.0.0.1:80"},
	} {
		if got, ok := bannerAddr(tc.line, tc.marker); !ok || got != tc.want {
			t.Errorf("bannerAddr(%q) = %q, %v; want %q", tc.line, got, ok, tc.want)
		}
	}
	for _, line := range []string{"accepted=1 replies=1", "listening on nothing", ""} {
		if got, ok := bannerAddr(line, "listening on "); ok {
			t.Errorf("bannerAddr(%q) = %q, want no match", line, got)
		}
	}
}

func TestBannerInts(t *testing.T) {
	lines := []string{
		"nio server listening on 127.0.0.1:1 (1 shards)",
		"accepted=3 replies=52110 bytes=99 404s=0 400s=0 shed=0 header-timeouts=0 panics=0",
		"304s=0 sendfile-bytes=1234 cache: hits=40001 misses=12109 evictions=11800 cached-bytes=4100000",
	}
	got := bannerInts(lines, "replies", "hits", "misses", "evictions", "absent")
	want := map[string]int64{"replies": 52110, "hits": 40001, "misses": 12109, "evictions": 11800}
	if len(got) != len(want) {
		t.Errorf("bannerInts = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bannerInts[%s] = %d, want %d", k, got[k], v)
		}
	}
}

// Two /rollup scrapes of one server, as obs.RenderRollup writes them.
const rollupBefore = `rollup server
field accepted 1
field replies 1
field bytes_out 4467
field sendfile_bytes 0
kind accept 1
dist handler 1e-05 1000 20 161 1 0 8
dist parse 1e-05 1000 20 161 1 0 5
dist queue_wait 1e-05 1000 20 161 0 0 82 18:1
dist write 1e-05 1000 20 161 0 0 15 3:1
end
`

const rollupAfter = `rollup server
field accepted 3
field replies 100001
field bytes_out 104004467
field sendfile_bytes 52000000
kind accept 3
dist handler 1e-05 1000 20 161 100001 0 120008
dist parse 1e-05 1000 20 161 100001 0 250005
dist queue_wait 1e-05 1000 20 161 0 0 182 18:1 20:2
dist write 1e-05 1000 20 161 60000 0 1400015 3:40001
end
`

func TestRollupDeltas(t *testing.T) {
	parse := func(s string) obs.RollupSnapshot {
		snap, err := obs.ParseRollup(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	before := []scrapeState{{rollup: parse(rollupBefore)}}
	after := []scrapeState{{rollup: parse(rollupAfter)}}
	if got := field(after[0].rollup, "replies") - field(before[0].rollup, "replies"); got != 100000 {
		t.Errorf("replies delta = %d", got)
	}
	if got := field(after[0].rollup, "no_such_field"); got != 0 {
		t.Errorf("missing field = %d, want 0", got)
	}
	for _, tc := range []struct {
		phase string
		want  float64
	}{
		{"handler", 1.2}, // (120008-8) us over 100000 samples
		{"parse", 2.5},
		{"write", 14.0},
		{"queue_wait", 50}, // two new connections, 100 us between them
		{"absent", 0},
	} {
		if got := phaseMeanUS(before, after, 0, tc.phase); got != tc.want {
			t.Errorf("phaseMeanUS(%s) = %v, want %v", tc.phase, got, tc.want)
		}
	}
	// No new samples between the scrapes: a mean of nothing is 0, not NaN.
	if got := phaseMeanUS(before, before, 0, "parse"); got != 0 {
		t.Errorf("phaseMeanUS over an empty interval = %v", got)
	}
}
