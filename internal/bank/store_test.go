package bank

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Store unit suite: the durable pool store's crash-safety contract —
// claim-before-use tombstoning across reopen, torn-tail truncation,
// corrupt-segment quarantine, and fail-closed journal recovery — all
// exercised through the same reopen path a real restart takes.

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

// segPath returns the single segment file of the scope's pool dir.
func segPath(t *testing.T, dir string, scope Scope) string {
	t.Helper()
	pool := filepath.Join(dir, poolsDir, scope.dirName())
	matches, err := filepath.Glob(filepath.Join(pool, segPrefix+"*"+segSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segment files under %s (err=%v)", pool, err)
	}
	return matches[len(matches)-1]
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
	// Abandon s1 without Close or Sync: every claim fsyncs the journal, so
	// both claims must already be durable — this is the SIGKILL model.
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Records != 3 || stats.Claimed != 2 {
		t.Fatalf("recovered %d records, %d claimed; want 3 and 2", stats.Records, stats.Claimed)
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

// TestStoreTornTailTruncated: a record half-written at crash time is
// truncated away on recovery; every complete record before it survives.
func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	for i := 1; i <= 3; i++ {
		if err := s1.Append(scope, uint64(i), []byte{byte(i), 0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()
	seg := segPath(t, dir, scope)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", stats.TornTails)
	}
	if stats.Records != 2 || stats.Quarantined != 0 {
		t.Fatalf("recovered %d records (%d quarantined), want 2 (0)", stats.Records, stats.Quarantined)
	}
	if fi2, _ := os.Stat(seg); fi2 != nil && fi2.Size() >= fi.Size()-3 {
		// the torn tail must be physically gone so the fresh segment never
		// collides with stale bytes
		t.Fatalf("torn tail not truncated: %d bytes, had %d", fi2.Size(), fi.Size()-3)
	}
}

// TestStoreCorruptSegmentQuarantined: a complete record whose CRC does
// not match means real corruption, not a crash mid-write; the whole
// segment is moved aside, never deleted, and recovery proceeds.
func TestStoreCorruptSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	for i := 1; i <= 3; i++ {
		if err := s1.Append(scope, uint64(i), bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()
	seg := segPath(t, dir, scope)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-40] ^= 0x5A // mid-payload of an interior record
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", stats.Quarantined)
	}
	if stats.Records != 0 {
		t.Fatalf("corrupt segment contributed %d records", stats.Records)
	}
	quar, err := filepath.Glob(filepath.Join(dir, quarDir, "*"))
	if err != nil || len(quar) != 1 {
		t.Fatalf("quarantine dir holds %d files (err=%v), want the segment", len(quar), err)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("corrupt segment still in the pool dir: %v", err)
	}
}

// TestStoreJournalFailClosed: corruption in the middle of the claim
// journal makes the claim set unknowable, so the store must refuse to
// serve at all rather than risk double-spending a correlation.
func TestStoreJournalFailClosed(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	for i := 1; i <= 4; i++ {
		if err := s1.Append(scope, uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		if _, ok, err := s1.ClaimByID(scope, uint64(i)); err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
	}
	s1.Close()
	jp := filepath.Join(dir, journalF)
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the FIRST entry: not a torn tail, unambiguous
	// corruption.
	data[len(data)-3*journalEntrySize+4] ^= 0xFF
	if err := os.WriteFile(jp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Recover(); err == nil {
		t.Fatal("recovery over a corrupt journal succeeded; must fail closed")
	}
	if err := s2.Append(scope, 99, []byte{9}); err == nil {
		t.Fatal("Append succeeded on a failed store")
	}
	if _, _, _, err := s2.Draw(scope); err == nil {
		t.Fatal("Draw succeeded on a failed store")
	}
}

// TestStoreJournalTornTailTolerated: a partial trailing journal entry is
// a crash mid-claim — the claim never reached the caller (the journal
// write precedes use), so truncating it is safe and recovery proceeds.
func TestStoreJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{})
	for i := 1; i <= 3; i++ {
		if err := s1.Append(scope, uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s1.ClaimByID(scope, 1); err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	s1.Close()
	jp := filepath.Join(dir, journalF)
	fi, err := os.Stat(jp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(jp, fi.Size()+journalEntrySize/2); err == nil {
		// extend with zero bytes: a torn trailing entry
	} else {
		t.Fatal(err)
	}
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Claimed != 1 || stats.Records != 2 {
		t.Fatalf("recovered claimed=%d records=%d, want 1 and 2", stats.Claimed, stats.Records)
	}
	if stats.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1 (journal tail)", stats.TornTails)
	}
}

// TestStoreSegmentRotation: appends past segmentMaxBytes rotate to new
// segment files, and recovery reassembles the pool from all of them.
func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s1, _ := openRecovered(t, dir, StoreOptions{segmentMaxBytes: 128})
	for i := 1; i <= 6; i++ {
		if err := s1.Append(scope, uint64(i), bytes.Repeat([]byte{byte(i)}, 48)); err != nil {
			t.Fatal(err)
		}
	}
	s1.Close()
	pool := filepath.Join(dir, poolsDir, scope.dirName())
	segs, _ := filepath.Glob(filepath.Join(pool, segPrefix+"*"+segSuffix))
	if len(segs) < 2 {
		t.Fatalf("%d segment files after rotation, want >= 2", len(segs))
	}
	s2, stats := openRecovered(t, dir, StoreOptions{})
	defer s2.Close()
	if stats.Records != 6 || stats.Segments != len(segs) {
		t.Fatalf("recovered %d records over %d segments, want 6 over %d",
			stats.Records, stats.Segments, len(segs))
	}
}

// TestStoreFsyncCadence: every claim is followed by its own journal
// fsync barrier — the claim-before-use guarantee has no batching.
func TestStoreFsyncCadence(t *testing.T) {
	var mu sync.Mutex
	fsyncs := 0
	obs := observerFunc(func(ev Event) {
		if ev.Kind == "persist-journal-fsync" {
			mu.Lock()
			fsyncs++
			mu.Unlock()
		}
	})
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s, _ := openRecovered(t, dir, StoreOptions{Observer: obs})
	defer s.Close()
	for i := 1; i <= 7; i++ {
		if err := s.Append(scope, uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 7; i++ {
		if _, ok, err := s.ClaimByID(scope, uint64(i)); err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
		mu.Lock()
		after := fsyncs
		mu.Unlock()
		if after != i {
			t.Fatalf("%d journal fsyncs after %d claims, want one per claim", after, i)
		}
	}
}

// observerFunc adapts a func to the Observer interface for tests.
type observerFunc func(Event)

func (f observerFunc) BankEvent(ev Event) { f(ev) }

func TestStoreDrawIsFIFO(t *testing.T) {
	dir := t.TempDir()
	scope := testScope(NoPeer)
	s, _ := openRecovered(t, dir, StoreOptions{})
	defer s.Close()
	for i := 1; i <= 3; i++ {
		if err := s.Append(scope, uint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
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
	} {
		if _, err := parseScope(bad); err == nil {
			t.Fatalf("parseScope(%q) accepted garbage", bad)
		}
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
