package testkit

import (
	"errors"
	"fmt"

	"abnn2"
	"abnn2/internal/nn"
	"abnn2/internal/ring"
	"abnn2/internal/transport"
)

// RunSecure executes full two-party secure inference for a case over an
// in-memory pipe and returns the client's raw ring outputs (one column
// per batch input). The model travels through its JSON wire format on
// the way in, so serialisation is part of what the sweep certifies.
// workers applies to both parties (0 = one per CPU).
func RunSecure(c *Case, workers int) (*ring.Mat, error) {
	return RunSecureCfg(c, workers, nil)
}

// RunSecureCfg is RunSecure with a per-party configuration hook: when
// mutate is non-nil it runs once per endpoint, after the base fields
// (ring, seed, workers) are set, with server reporting which side the
// config belongs to. The bank equivalence suite uses it to point both
// parties at a shared correlation bank; anything Config can express
// (ReLU variant, tracing, offline mode) composes the same way.
func RunSecureCfg(c *Case, workers int, mutate func(server bool, cfg *abnn2.Config)) (*ring.Mat, error) {
	data, err := nn.MarshalQuantized(c.Model)
	if err != nil {
		return nil, fmt.Errorf("marshal model: %w", err)
	}
	qm, err := abnn2.LoadQuantizedModel(data)
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	serverConn, clientConn := transport.Pipe()
	// Distinct non-zero seeds per party, derived from the case seed so
	// the whole run (weights, inputs, protocol randomness) reproduces
	// from one number.
	scfg := abnn2.Config{RingBits: c.RingBits, Seed: 2*c.Seed + 1, Workers: workers}
	ccfg := abnn2.Config{RingBits: c.RingBits, Seed: 2*c.Seed + 2, Workers: workers}
	if mutate != nil {
		mutate(true, &scfg)
		mutate(false, &ccfg)
	}
	// A party that fails makes its peer fail with a closed connection, so
	// both errors are reported, the client's first.
	srvErr := make(chan error, 1)
	go func() {
		_, err := abnn2.Serve(serverConn, qm, scfg)
		if err != nil {
			err = fmt.Errorf("server: %w", err)
		}
		srvErr <- err
	}()
	client, err := abnn2.Dial(clientConn, qm.Arch(), ccfg)
	if err != nil {
		clientConn.Close()
		return nil, errors.Join(fmt.Errorf("dial: %w", err), <-srvErr)
	}
	out, err := client.Infer(c.Inputs)
	client.Close() // server sees a clean hang-up and Serve returns
	if err != nil {
		err = fmt.Errorf("infer: %w", err)
	}
	if err := errors.Join(err, <-srvErr); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckCase is the dual-execution differential oracle: it runs the case
// through the secure two-party protocol and through the plaintext ring
// reference (nn.ForwardRing) and demands exact equality on every output
// of every batch sample. The two paths share no arithmetic code, so a
// silent bug in either shows up here with a reproducing seed.
func CheckCase(c *Case) error {
	out, err := RunSecure(c, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", c.Desc(), err)
	}
	rg := ring.New(c.RingBits)
	for k, x := range c.Inputs {
		want := c.Model.ForwardRing(rg, c.Model.EncodeInput(rg, x))
		if out.Rows != len(want) {
			return fmt.Errorf("%s: secure output has %d rows, reference %d", c.Desc(), out.Rows, len(want))
		}
		for i, w := range want {
			if got := out.At(i, k); got != w {
				return fmt.Errorf("%s: output %d of sample %d: secure %d, plaintext %d",
					c.Desc(), i, k, got, w)
			}
		}
	}
	return nil
}
