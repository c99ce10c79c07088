package bank

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"abnn2/internal/metrics"
)

// TestMetricsObserverSeriesMove drives a server's bank over a durable
// store through every event a server raises — recovery over a good and a
// corrupt half file, a Put of a prefetched half, peer claims that hit and
// miss, a claim under the loopback client's identity (a forged or
// misrouted announcement) and a claim of a half whose file rotted after
// recovery — and checks that every family NewMetricsObserver registers
// shows a non-zero sample. A series no server event can move is dead
// weight in every scrape; this keeps one from being added.
func TestMetricsObserverSeriesMove(t *testing.T) {
	dir := t.TempDir()
	cli := PeerID{2}
	scope := testScope(cli)
	srvHalf, _ := fuzzCorrPair()
	half := EncodeServerCorr(srvHalf)

	// A previous run stored two halves; one file rots before the restart.
	st, _ := openRecovered(t, dir, StoreOptions{})
	for id := uint64(1); id <= 2; id++ {
		if err := st.Append(scope, id, half); err != nil {
			t.Fatalf("append %d: %v", id, err)
		}
	}
	st.Close()
	rot := func(id uint64) {
		t.Helper()
		if err := os.WriteFile(halfPath(t, dir, scope, id), []byte("rot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rot(2)

	reg := metrics.NewRegistry()
	obs := NewMetricsObserver(reg)
	st, stats := openRecovered(t, dir, StoreOptions{Observer: obs})
	if stats.Records != 1 || stats.Quarantined != 1 {
		t.Fatalf("recovery: %+v, want 1 record and 1 quarantined", stats)
	}
	b := New(Options{Store: st, Observer: obs})
	defer func() {
		b.Close()
		st.Close()
	}()
	if err := b.Put(cli, scope.Key, 3, half); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, ok := b.Claim(cli, 1, scope.Key); !ok {
		t.Fatal("claim of a recovered half missed")
	}
	if _, ok := b.Claim(cli, 2, scope.Key); ok {
		t.Fatal("claim of a quarantined half hit")
	}
	if _, ok := b.Claim(LoopbackClient, 3, scope.Key); ok {
		t.Fatal("loopback claim hit a peer's half")
	}
	rot(3)
	if _, ok := b.Claim(cli, 3, scope.Key); ok {
		t.Fatal("claim of a rotten half hit")
	}

	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	var families []string
	moved := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[1] == "TYPE":
			families = append(families, f[2])
		case len(f) == 2 && f[1] != "0":
			name, _, _ := strings.Cut(f[0], "{")
			moved[name] = true
		}
	}
	if len(families) == 0 {
		t.Fatalf("no families in the exposition:\n%s", out.String())
	}
	for _, name := range families {
		if !strings.HasPrefix(name, "abnn2_bank_") {
			t.Errorf("%s: not a bank series", name)
		} else if !moved[name] {
			t.Errorf("%s: no server event moved it", name)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out.String())
	}
}
