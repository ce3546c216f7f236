//go:build linux && invariants

package docroot

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A deliberate refcount violation must trip the invariant layer: with
// -tags invariants a double Release panics at the point of corruption
// instead of silently closing a shared fd out from under a response in
// flight. (The no-tag counterpart — assertions compiling out — is
// covered by internal/invariant's untagged test.)
func TestDoubleReleasePanicsUnderInvariants(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	// CacheBytes 0: the cache holds no reference, so the caller's single
	// reference is the only one and the second Release drives it to -1.
	r, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	e, err := r.Get("/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	e.Release() // the one legitimate release; refs 1 -> 0, fd closes
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("double Release did not panic under -tags invariants")
		}
		msg, _ := rec.(string)
		if !strings.HasPrefix(msg, "invariant violation: ") ||
			!strings.Contains(msg, "refcount went negative") {
			t.Fatalf("unexpected panic message %q", msg)
		}
	}()
	e.Release() // the violation: refs 0 -> -1
}
