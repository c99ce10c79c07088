package bank

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Store unit suite: the durable pool store's crash-safety contract —
// a claim is an unlink that survives reopen, recovery deletes temporary
// files and quarantines corrupt halves, a pool that cannot be listed and
// a directory of the older format fail the store closed — all exercised
// through the same reopen path a real restart takes.

func testScope(peer PeerID) Scope {
	return Scope{Peer: peer, Key: Key{Model: "m-test", Scheme: "4(2,2)",
		RingBits: 32, Batch: 2, Backend: SessionBackend}}
}

// openRecovered opens a store on dir and runs recovery, failing the test
// on any error.
func openRecovered(t *testing.T, dir string, opts StoreOptions) (*Store, RecoverStats) {
	t.Helper()
	opts.Dir = dir
	s, err := OpenStore(opts)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	stats, err := s.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return s, stats
}

// poolPath returns the scope's pool directory under the store at dir.
func poolPath(dir string, scope Scope) string {
	return filepath.Join(dir, poolsDir, scope.dirName())
}

// halfFiles lists the names in the scope's pool directory other than
// SCOPE, in name order.
func halfFiles(t *testing.T, dir string, scope Scope) []string {
	t.Helper()
	entries, err := os.ReadDir(poolPath(dir, scope))
	if err != nil {
		t.Fatalf("list pool: %v", err)
	}
	var names []string
	for _, e := range entries {
		if e.Name() != scopeFile {
			names = append(names, e.Name())
		}
	}
	return names
}

// halfPath returns the file of the scope's only half named with id.
func halfPath(t *testing.T, dir string, scope Scope, id uint64) string {
	t.Helper()
	for _, n := range halfFiles(t, dir, scope) {
		if _, fid, ok := parseHalfName(n); ok && fid == id {
			return filepath.Join(poolPath(dir, scope), n)
		}
	}
	t.Fatalf("no half file for id %d", id)
	return ""
}

// appendN appends halves 1..n, half i being size bytes of i.
func appendN(t *testing.T, s *Store, scope Scope, n, size int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := s.Append(scope, uint64(i), bytes.Repeat([]byte{byte(i)}, size)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestStoreRefusesOpsBeforeRecover(t *testing.T) {
	s, err := OpenStore(StoreOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(testScope(NoPeer), 1, []byte{1}); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("Append before Recover: %v, want ErrNotRecovered", err)
	}
	if _, _, _, err := s.Draw(testScope(NoPeer)); !errors.Is(err, ErrNotRecovered) {
		t.Fatalf("Draw before Recover: %v, want ErrNotRecovered", err)
	}
}

func TestStorePeerIDPersists(t *testing.T) {
	dir := t.TempDir()
	s1, _ := openRecovered(t, dir, StoreOptions{})
	p1 := s1.PeerID()
	if p1 == NoPeer {
		t.Fatal("fresh store minted the zero peer id")
	}
	s1.Close()
	s2, _ := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if s2.PeerID() != p1 {
		t.Fatalf("peer id changed across reopen: %s -> %s", p1, s2.PeerID())
	}
}

// TestStoreClaimSurvivesReopen is the core single-use property: a
// correlation drawn (claimed) before a crash must be gone after
// recovery, and the ones not drawn must all still be there.
func TestStoreClaimSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	blobs := map[uint64][]byte{}
	for i := 1; i <= 5; i++ {
		id := uint64(i)
		blob := bytes.Repeat([]byte{byte(i)}, i*3)
		blobs[id] = blob
		if err := s1.Append(scope, id, blob); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	id, _, ok, err := s1.Draw(scope)
	if err != nil || !ok {
		t.Fatalf("draw: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s1.ClaimByID(scope, 3); err != nil || !ok {
		t.Fatalf("claim 3: ok=%v err=%v", ok, err)
	}
	// Abandon s1 without Close or Sync: every claim unlinks its file and
	// fsyncs the pool directory, so both claims must already be durable —
	// this is the SIGKILL model.
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Records != 3 {
		t.Fatalf("recovered %d records, want 3", stats.Records)
	}
	if _, ok, _ := s2.ClaimByID(scope, id); ok {
		t.Fatalf("correlation %d claimable again after reopen — double use", id)
	}
	if _, ok, _ := s2.ClaimByID(scope, 3); ok {
		t.Fatal("correlation 3 claimable again after reopen — double use")
	}
	survivors := 0
	for {
		rid, blob, ok, err := s2.Draw(scope)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		survivors++
		if rid == id || rid == 3 {
			t.Fatalf("claimed id %d still drawable after recovery", rid)
		}
		if !bytes.Equal(blob, blobs[rid]) {
			t.Fatalf("record %d blob corrupted across reopen", rid)
		}
	}
	if survivors != 3 {
		t.Fatalf("%d records survive, want 3", survivors)
	}
}

// TestStoreTornTailTruncated: an append that crashed before its rename
// leaves a temporary file; recovery deletes it, serves every half that
// was renamed into place and quarantines nothing.
func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	appendN(t, s1, scope, 3, 2)
	s1.Close()
	tmp := filepath.Join(poolPath(dir, scope), halfName(4, 4)+tmpSuffix)
	if err := os.WriteFile(tmp, halfHeader(4, []byte{4, 4})[:11], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Records != 3 || stats.Quarantined != 0 {
		t.Fatalf("recovered %d records (%d quarantined), want 3 (0)", stats.Records, stats.Quarantined)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temporary file survived recovery: %v", err)
	}
	if err := s2.Append(scope, 4, []byte{4}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

// TestStoreCorruptSegmentQuarantined: a half file whose checksum does not
// match was rewritten by a disk or an editor; it is moved aside, never
// deleted and never served, and recovery proceeds with the others.
func TestStoreCorruptSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	appendN(t, s1, scope, 3, 16)
	s1.Close()
	path := halfPath(t, dir, scope, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x5A
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Quarantined != 1 || stats.Records != 2 {
		t.Fatalf("recovered %d records, %d quarantined; want 2 and 1", stats.Records, stats.Quarantined)
	}
	quar, err := filepath.Glob(filepath.Join(dir, quarDir, "*"))
	if err != nil || len(quar) != 1 || filepath.Base(quar[0]) != filepath.Base(path) {
		t.Fatalf("quarantine dir holds %v (err=%v), want the corrupt half", quar, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt half still in the pool dir: %v", err)
	}
	if _, ok, _ := s2.ClaimByID(scope, 2); ok {
		t.Fatal("the corrupt half was served")
	}
}

// TestStoreOversizeFilesQuarantined: a half file or SCOPE longer than
// any the store writes is refused from its size, before it is read: a
// planted sparse file with a valid magic and one byte past the bound costs
// recovery and a claim almost no memory, and is quarantined like any
// corrupt half.
func TestStoreOversizeFilesQuarantined(t *testing.T) {
	const oversize = halfHeaderSize + maxRecordBytes + 1
	dir := t.TempDir()
	scope, other := testScope(NoPeer), testScope(PeerID{7})
	s1, _ := openRecovered(t, dir, StoreOptions{})
	appendN(t, s1, scope, 3, 16)
	appendN(t, s1, other, 1, 16)
	s1.Close()
	// Truncate extends a file sparsely, so the headers stay intact.
	grow := func(path string, size int64) {
		t.Helper()
		if err := os.Truncate(path, size); err != nil {
			t.Fatal(err)
		}
	}
	grow(halfPath(t, dir, scope, 2), oversize)
	grow(filepath.Join(poolPath(dir, other), scopeFile), maxLineBytes+1)
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	var s2 *Store
	var stats RecoverStats
	if n := allocated(func() { s2, stats = openRecovered(t, dir, StoreOptions{}) }); n >= 1<<20 {
		t.Fatalf("recovery allocated %d KiB over oversized files", n>>10)
	}
	defer s2.Close()
	if stats.Quarantined != 2 || stats.Records != 2 {
		t.Fatalf("recovered %d records, %d quarantined; want 2 and 2", stats.Records, stats.Quarantined)
	}
	if _, ok, _ := s2.ClaimByID(scope, 2); ok {
		t.Fatal("the oversized half was served")
	}

	// A half that grows past the bound after recovery is refused by its claim.
	path := halfPath(t, dir, scope, 3)
	grow(path, oversize)
	var err error
	var ok bool
	if n := allocated(func() { _, ok, err = s2.ClaimByID(scope, 3) }); n >= 1<<20 {
		t.Fatalf("the claim allocated %d KiB over an oversized half", n>>10)
	}
	if ok || err == nil {
		t.Fatalf("claim of an oversized half: ok=%v err=%v, want a refusal", ok, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("oversized half still in the pool dir: %v", err)
	}
	quar, err := filepath.Glob(filepath.Join(dir, quarDir, "*"))
	if err != nil || len(quar) != 3 {
		t.Fatalf("quarantine dir holds %v (err=%v), want two halves and one pool", quar, err)
	}
}

// TestStoreJournalFailClosed: a pool directory that cannot be listed
// holds halves the store cannot account for and sequence numbers it
// cannot continue, so the store refuses to serve at all rather than
// guess.
func TestStoreJournalFailClosed(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	appendN(t, s1, scope, 2, 1)
	s1.Close()
	// A listing fails the same way for a process without read permission
	// and, as here, for a pool that is no longer a directory.
	pool := poolPath(dir, scope)
	if err := os.RemoveAll(pool); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pool, []byte("not a pool\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Recover(); err == nil {
		t.Fatal("recovery over an unlistable pool succeeded; must fail closed")
	}
	if err := s2.Append(scope, 99, []byte{9}); err == nil {
		t.Fatal("Append succeeded on a failed store")
	}
	if _, _, _, err := s2.Draw(scope); err == nil {
		t.Fatal("Draw succeeded on a failed store")
	}
}

// TestStoreJournalTornTail: a half file cut short — which the
// fsync-then-rename append never leaves, but a disk or a copy tool can —
// fails its checksum and is quarantined; a claim made before the cut
// stays made, and the other halves stay claimable.
func TestStoreJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	appendN(t, s1, scope, 3, 8)
	if _, ok, err := s1.ClaimByID(scope, 1); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	s1.Close()
	path := halfPath(t, dir, scope, 3)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Records != 1 || stats.Quarantined != 1 {
		t.Fatalf("recovered %d records, %d quarantined; want 1 and 1", stats.Records, stats.Quarantined)
	}
	if id, _, ok, err := s2.Draw(scope); err != nil || !ok || id != 2 {
		t.Fatalf("draw = %d ok=%v err=%v, want half 2", id, ok, err)
	}
	if _, _, ok, _ := s2.Draw(scope); ok {
		t.Fatal("a claimed or torn half was served")
	}
}

// TestStoreSegmentRotation: a pool of many halves is one file per half
// and nothing else, every name in the <seq>-<id> form, and recovery
// rebuilds the pool in append order however the ids sort.
func TestStoreSegmentRotation(t *testing.T) {
	const n = 300 // past 0xff, so sequence order is more than one hex digit's
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = NewCorrID()
		if err := s1.Append(scope, ids[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()
	// The whole store: PEER, quarantine/ and the pool, which holds SCOPE
	// and one file per half.
	var got []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		got = append(got, rel)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := filepath.Join(poolsDir, scope.dirName())
	want := []string{".", peerFile, poolsDir, pool, filepath.Join(pool, scopeFile), quarDir}
	if len(got) != len(want)+n {
		t.Fatalf("store holds %d entries, want %d", len(got), len(want)+n)
	}
	seen := map[string]bool{}
	for _, p := range got {
		seen[p] = true
	}
	for _, p := range want {
		if !seen[p] {
			t.Fatalf("store lacks %s", p)
		}
	}
	for i, id := range ids {
		if !seen[filepath.Join(pool, halfName(uint64(i+1), id))] {
			t.Fatalf("half %d is not at %s", i, halfName(uint64(i+1), id))
		}
	}
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Records != n || stats.Scopes != 1 {
		t.Fatalf("recovered %d records in %d scopes, want %d in 1", stats.Records, stats.Scopes, n)
	}
	for i, want := range ids {
		id, blob, ok, err := s2.Draw(scope)
		if err != nil || !ok || id != want || blob[0] != byte(i) {
			t.Fatalf("draw %d = id %x ok=%v err=%v, want %x (FIFO by sequence)", i, id, ok, err, want)
		}
	}
}

// TestStoreFsyncCadence: every claim is followed by its own fsync of the
// pool directory — the claim-before-use guarantee has no batching.
func TestStoreFsyncCadence(t *testing.T) {
	var mu sync.Mutex
	fsyncs := 0
	obs := observerFunc(func(ev Event) {
		if ev.Kind == "persist-claim-fsync" {
			mu.Lock()
			fsyncs++
			mu.Unlock()
		}
	})
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s, _ := openRecovered(t, dir, StoreOptions{Observer: obs})
	defer s.Close()
	appendN(t, s, scope, 7, 1)
	for i := 1; i <= 7; i++ {
		if _, ok, err := s.ClaimByID(scope, uint64(i)); err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
		mu.Lock()
		after := fsyncs
		mu.Unlock()
		if after != i {
			t.Fatalf("%d claim fsyncs after %d claims, want one per claim", after, i)
		}
	}
}

func TestStoreDrawIsFIFO(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s, _ := openRecovered(t, dir, StoreOptions{})
	defer s.Close()
	appendN(t, s, scope, 3, 1)
	for want := uint64(1); want <= 3; want++ {
		id, blob, ok, err := s.Draw(scope)
		if err != nil || !ok {
			t.Fatalf("draw %d: ok=%v err=%v", want, ok, err)
		}
		if id != want || blob[0] != byte(want) {
			t.Fatalf("draw returned id %d, want %d (FIFO)", id, want)
		}
	}
	if _, _, ok, _ := s.Draw(scope); ok {
		t.Fatal("draw from an empty pool succeeded")
	}
}

// TestStoreHoldsIdsNotHalves: a recovered durable pool costs memory per
// id, not per byte stored — the halves stay on disk until claimed.
func TestStoreHoldsIdsNotHalves(t *testing.T) {
	const n, size = 32, 256 << 10
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	appendN(t, s1, scope, n, size)
	s1.Close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if stats.Records != n {
		t.Fatalf("recovered %d records, want %d", stats.Records, n)
	}
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap growth holding %d recovered halves of %d KiB: %d KiB", n, size>>10, growth>>10)
	if growth >= size {
		t.Fatalf("recovered store holds %d KiB of heap, at least one half's %d KiB", growth>>10, size>>10)
	}
	runtime.KeepAlive(s2)
}

// TestStoreRefusesSegmentJournalFormat: a directory written in the older
// segment-and-journal format is refused with a FormatError, every file in
// it is left byte-identical, and the store serves nothing from it.
func TestStoreRefusesSegmentJournalFormat(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	files := map[string][]byte{
		peerFile:  []byte(strings.Repeat("ab", 16) + "\n"),
		"journal": []byte("ABNN2JN1\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\xde\xad\xbe\xef"),
		filepath.Join(poolsDir, scope.dirName(), scopeFile):        []byte(scope.String() + "\n"),
		filepath.Join(poolsDir, scope.dirName(), "seg-000001.log"): []byte("ABNN2SG1\x05\x00v1 pe\x09\x00\x00\x00\x00\x00\x00\x00"),
	}
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Recover()
	var ferr *FormatError
	if !errors.As(err, &ferr) {
		t.Fatalf("Recover over the older format = %v, want a *FormatError", err)
	}
	if !strings.Contains(err.Error(), "ABNN2JN1") {
		t.Fatalf("format error %q does not name the format", err)
	}
	if err := s.Append(scope, 1, []byte{1}); err == nil {
		t.Fatal("Append succeeded on a refused store")
	}
	if _, _, _, err := s.Draw(scope); err == nil {
		t.Fatal("Draw succeeded on a refused store")
	}
	for name, data := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed under a refused recovery (err=%v)", name, err)
		}
	}
}

// TestStorePruneAtSync: claiming every half leaves nothing behind — the
// pool directory holds its SCOPE file only, before and after a drain's
// Sync — and each claim is one persist-claim event naming its half.
func TestStorePruneAtSync(t *testing.T) {
	var mu sync.Mutex
	claimed := map[uint64]string{}
	obs := observerFunc(func(ev Event) {
		if ev.Kind == "persist-claim" {
			mu.Lock()
			claimed[ev.ID] = ev.Pool
			mu.Unlock()
		}
	})
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s, _ := openRecovered(t, dir, StoreOptions{Observer: obs})
	defer s.Close()
	appendN(t, s, scope, 6, 48)
	for i := 0; i < 6; i++ {
		if _, _, ok, err := s.Draw(scope); err != nil || !ok {
			t.Fatalf("draw %d: ok=%v err=%v", i, ok, err)
		}
	}
	if n := halfFiles(t, dir, scope); len(n) != 0 {
		t.Fatalf("claimed halves left files %v", n)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := halfFiles(t, dir, scope); len(n) != 0 {
		t.Fatalf("files %v after the drain sync", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := uint64(1); i <= 6; i++ {
		if claimed[i] != scope.dirName() {
			t.Fatalf("claim of %d reported pool %q, want %q", i, claimed[i], scope.dirName())
		}
	}
}

// TestStorePruneKeepsLiveSegments: a claim removes its own half's file
// and no other.
func TestStorePruneKeepsLiveSegments(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s, _ := openRecovered(t, dir, StoreOptions{})
	defer s.Close()
	appendN(t, s, scope, 6, 48)
	if _, _, ok, err := s.Draw(scope); err != nil || !ok {
		t.Fatalf("draw: ok=%v err=%v", ok, err)
	}
	files := halfFiles(t, dir, scope)
	if len(files) != 5 {
		t.Fatalf("%d half files after one claim of six, want 5", len(files))
	}
	for _, n := range files {
		if _, id, _ := parseHalfName(n); id == 1 {
			t.Fatalf("the claimed half's file %s survived", n)
		}
	}
	if got := s.Depth(scope); got != 5 {
		t.Fatalf("depth after partial claim = %d, want 5", got)
	}
}

// TestStorePruneAtRecovery: after a restart the pool is exactly its
// unclaimed halves, still in order and still single-use.
func TestStorePruneAtRecovery(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	appendN(t, s1, scope, 6, 48)
	for i := 0; i < 4; i++ {
		if _, _, ok, err := s1.Draw(scope); err != nil || !ok {
			t.Fatalf("draw %d: ok=%v err=%v", i, ok, err)
		}
	}
	s1.Close()

	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Records != 2 || len(halfFiles(t, dir, scope)) != 2 {
		t.Fatalf("recovered %d records over %d files, want 2 and 2", stats.Records, len(halfFiles(t, dir, scope)))
	}
	for want := uint64(5); want <= 6; want++ {
		if id, _, ok, err := s2.Draw(scope); err != nil || !ok || id != want {
			t.Fatalf("post-recovery draw = %d ok=%v err=%v, want %d", id, ok, err, want)
		}
	}
	if _, _, ok, _ := s2.Draw(scope); ok {
		t.Fatal("drew more records than were ever appended")
	}
}

// TestStorePruneFullyClaimedStore: when every half is claimed before a
// restart, recovery finds an empty pool, and a fresh append lands and
// draws cleanly.
func TestStorePruneFullyClaimedStore(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	appendN(t, s1, scope, 4, 48)
	for i := 0; i < 4; i++ {
		if _, _, ok, err := s1.Draw(scope); err != nil || !ok {
			t.Fatalf("draw %d: ok=%v err=%v", i, ok, err)
		}
	}
	s1.Close()

	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Records != 0 || stats.Scopes != 1 {
		t.Fatalf("recovered %d records in %d scopes, want 0 in 1", stats.Records, stats.Scopes)
	}
	if err := s2.Append(scope, 100, []byte{1}); err != nil {
		t.Fatalf("append to an emptied pool: %v", err)
	}
	if id, _, ok, err := s2.Draw(scope); err != nil || !ok || id != 100 {
		t.Fatalf("draw after refill: id=%d ok=%v err=%v", id, ok, err)
	}
}

// TestAuditJournal: the claim log behind the single-use audit of
// scripts/crashtest.sh — LogClaims writes one "bank claim" line per
// durable claim with the pool's scope digest and the id, none for a
// loopback claim, and passes every event on.
func TestAuditJournal(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	passed := 0
	next := observerFunc(func(Event) { mu.Lock(); passed++; mu.Unlock() })
	log := slog.New(slog.NewTextHandler(&buf, nil))
	dir := t.TempDir()
	scope, loop := testScope(NoPeer), testScope(LoopbackServer)
	s, _ := openRecovered(t, dir, StoreOptions{Observer: LogClaims(log, next)})
	defer s.Close()
	appendN(t, s, scope, 3, 1)
	appendN(t, s, loop, 1, 1)
	for _, sc := range []Scope{scope, scope, loop} {
		if _, _, ok, err := s.Draw(sc); !ok || err != nil {
			t.Fatalf("draw: ok=%v err=%v", ok, err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("claim log holds %d lines, want 2 (durable claims only):\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		want := fmt.Sprintf(`msg="bank claim" scope=%s id=%016x`, scope.dirName(), i+1)
		if !strings.Contains(line, want) {
			t.Fatalf("claim line %q lacks %q", line, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if passed == 0 {
		t.Fatal("LogClaims passed no event on")
	}
}

func TestScopeRoundTrip(t *testing.T) {
	var peer PeerID
	copy(peer[:], bytes.Repeat([]byte{0xAB}, 16))
	for _, sc := range []Scope{testScope(NoPeer), testScope(peer)} {
		got, err := parseScope(sc.String())
		if err != nil {
			t.Fatalf("parse %q: %v", sc.String(), err)
		}
		if got != sc {
			t.Fatalf("scope round trip: %v != %v", got, sc)
		}
	}
	for _, bad := range []string{
		"", "v2 peer=x", "v1 peer=zz model=m scheme=s l=32 batch=1 backend=b",
		"v1 peer=" + NoPeer.String() + " model=m scheme=s l=7 batch=1 backend=b",
		"v1 peer=" + NoPeer.String() + " model=" + strings.Repeat("m", maxLineBytes/4+1) + " scheme=s l=32 batch=1 backend=b",
	} {
		if _, err := parseScope(bad); err == nil {
			t.Fatalf("parseScope(%.80q) accepted garbage", bad)
		}
	}
	// The longest valid scope's SCOPE line is one recovery reads back.
	long := testScope(peer)
	field := strings.Repeat("x", maxLineBytes/4)
	long.Key.Model, long.Key.Scheme, long.Key.Backend = field, field, field
	if err := long.valid(); err != nil || len(long.String())+1 > maxLineBytes {
		t.Fatalf("longest valid scope: err %v, SCOPE line of %d bytes past the %d-byte bound", err, len(long.String())+1, maxLineBytes)
	}
}

func TestNewCorrIDUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewCorrID()
		if id == 0 || seen[id] {
			t.Fatalf("NewCorrID returned %d (dup or zero) after %d draws", id, i)
		}
		seen[id] = true
	}
}
