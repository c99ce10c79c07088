package core

import (
	"bytes"
	"sync"
	"testing"

	"abnn2/internal/prg"
	"abnn2/internal/quant"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// recorder captures every byte a party sends, for transcript-determinism
// regression tests.
type recorder struct {
	transport.Conn
	mu  sync.Mutex
	log bytes.Buffer
}

func (r *recorder) Send(msg []byte) error {
	r.mu.Lock()
	r.log.Write(msg)
	r.mu.Unlock()
	return r.Conn.Send(msg)
}

func (r *recorder) transcript() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte{}, r.log.Bytes()...)
}

// With fixed seeds on BOTH parties, the whole protocol transcript must be
// byte-identical across runs — the property every benchmark and recorded
// experiment in this repo relies on.
func TestTranscriptDeterminism(t *testing.T) {
	run := func() ([]byte, []byte) {
		p := Params{Ring: ring.New(32), Scheme: quant.Uniform(2, 2)}
		ca, cb := transport.Pipe()
		defer ca.Close()
		rca := &recorder{Conn: ca}
		rcb := &recorder{Conn: cb}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct, err := NewClientTriplets(rca, p, 1, prg.New(prg.SeedFromInt(101)))
			if err != nil {
				t.Error(err)
				return
			}
			R := prg.New(prg.SeedFromInt(102)).Mat(p.Ring, 6, 1)
			if _, err := ct.GenerateClient(MatShape{M: 4, N: 6, O: 1}, R, OneBatch); err != nil {
				t.Error(err)
			}
		}()
		// An OS-seeded server would break determinism of ITS transcript —
		// and of the client's too: nothing the server sends influences the
		// client's payload bytes, except that the base-OT B points do (they
		// key the pads). So pin the server randomness as well.
		st, err := NewServerTripletsSeeded(rcb, p, 1, prg.New(prg.SeedFromInt(103)))
		if err != nil {
			t.Fatal(err)
		}
		W := []int64{1, -2, 0, 3, -1, 2, 1, 0, -2, 3, 1, -1, 0, 2, -2, 1, 3, 0, 1, -1, 2, 0, -2, 1}
		if _, err := st.GenerateServer(MatShape{M: 4, N: 6, O: 1}, W, OneBatch); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		return rca.transcript(), rcb.transcript()
	}
	c1, s1 := run()
	c2, s2 := run()
	if !bytes.Equal(c1, c2) {
		t.Error("client transcript differs across identical seeded runs")
	}
	if !bytes.Equal(s1, s2) {
		t.Error("server transcript differs across identical seeded runs")
	}
	if len(c1) == 0 || len(s1) == 0 {
		t.Error("empty transcripts recorded")
	}
}
