package main

import (
	"runtime"
	"time"
)

// sample is the median cost of one call of a replayed layer.
type sample struct {
	Seconds    float64
	Mallocs    float64
	AllocBytes float64
}

// measured calls fn replayReps times and returns the medians of its wall
// time and of the heap allocations made meanwhile (by every goroutine:
// the replay runs alone).
func measured(fn func() error) (sample, error) {
	var secs, mallocs, bytes []float64
	var before, after runtime.MemStats
	for i := 0; i < replayReps; i++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		if err != nil {
			return sample{}, err
		}
		secs = append(secs, d)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return sample{median(secs), median(mallocs), median(bytes)}, nil
}

// infallible adapts a kernel that cannot fail to measured.
func infallible(fn func()) func() error {
	return func() error { fn(); return nil }
}

// replay calls each layer's public functions at the shapes of one request
// and records the kernel rows of the ledger. It returns the seconds the
// replayed protocol steps would keep a request waiting: triplets (when
// they run on the request path), activations, argmax and the online
// matmul, each a two-party wall.
func replay(rs requestShape, scheme string, workers int, tripletsOnPath bool, m *metricSet) (blocking float64, err error) {
	rounds := rs.extendRounds()
	totalOTs, multiBatch := rs.ots()

	// prg: OT extension expands every code column once at the sender and
	// twice at the receiver, a round's worth of bits per call.
	fillBytes := 0
	for _, r := range rounds {
		fillBytes += 3 * codeWidthBits * ((r + 7) / 8)
	}
	fill, _ := measured(infallible(func() { kernelPRGFill(fillBytes, otChunk/8) }))
	m.set("prg.fill_s", fill.Seconds)
	m.set("prg.fill_mib", float64(fillBytes)/mib)
	m.set("prg.fill_mib_per_s", share(float64(fillBytes)/mib, fill.Seconds))
	oracle, _ := measured(infallible(func() {
		for _, l := range rs.Layers {
			for _, n := range rs.FragN {
				kernelOracle(l.M*l.N*(n+1), l.O*ringBits/8)
			}
		}
	}))
	m.set("prg.oracle_s", oracle.Seconds)
	m.set("prg.oracle_calls", float64(rs.oracleCalls()))

	// bitmat: per round the receiver transposes the code matrix and its
	// column matrix, the sender its column matrix.
	perSize := map[int]int{}
	for _, r := range rounds {
		perSize[(r+7)&^7]++
	}
	transposed := 0
	var jobs []func()
	for rows, times := range perSize {
		tall, wide := transposeInput(rows, codeWidthBits), transposeInput(codeWidthBits, rows)
		transposed += 3 * times * rows * codeWidthBits / 8
		times := times
		jobs = append(jobs, func() {
			kernelTranspose(tall, times)
			kernelTranspose(wide, 2*times)
		})
	}
	tr, _ := measured(infallible(func() {
		for _, j := range jobs {
			j()
		}
	}))
	m.set("bitmat.transpose_s", tr.Seconds)
	m.set("bitmat.transpose_mib_per_s", share(float64(transposed)/mib, tr.Seconds))
	m.set("bitmat.transpose_allocs", tr.Mallocs)

	// ring: the server's online W*X of every layer.
	mulIn := newMulMatInput(rs)
	mul, _ := measured(infallible(func() { kernelMulMat(mulIn) }))
	m.set("ring.mulmat_s", mul.Seconds)

	// baseot + otext: set-up of both roles, then the request's rounds.
	var ot *otPair
	setup, err := measured(func() error {
		if ot != nil {
			ot.close()
		}
		ot, err = openOTPair(workers)
		return err
	})
	if err != nil {
		return 0, err
	}
	defer ot.close()
	m.set("baseot.setup_s", setup.Seconds)
	choices := make([]int, otChunk)
	for i := range choices {
		choices[i] = i % rs.maxFragN()
	}
	sentBefore := ot.meter.Snapshot().TotalBytes()
	ext, err := measured(func() error { return ot.extend(rounds, choices) })
	if err != nil {
		return 0, err
	}
	m.set("otext.extend_s", ext.Seconds)
	m.set("otext.extend_ots", float64(totalOTs))
	m.set("otext.extend_ots_per_s", share(float64(totalOTs), ext.Seconds))
	m.set("otext.extend_mib", float64(ot.meter.Snapshot().TotalBytes()-sentBefore)/replayReps/mib)
	m.set("otext.extend_allocs", ext.Mallocs)
	m.set("otext.extend_alloc_mib", ext.AllocBytes/mib)

	// gc: the request's circuits garbled and evaluated locally, then as
	// the two-party round.
	work := newGCWork(rs)
	garbled, err := work.garble()
	if err != nil {
		return 0, err
	}
	garble, err := measured(func() error { _, err := work.garble(); return err })
	if err != nil {
		return 0, err
	}
	labels := evalLabels(garbled)
	evaluate, err := measured(func() error { return work.evaluate(garbled, labels) })
	if err != nil {
		return 0, err
	}
	gcp, err := openGCPair(workers)
	if err != nil {
		return 0, err
	}
	defer gcp.close()
	batch, err := measured(func() error { return gcp.runBatch(work) })
	if err != nil {
		return 0, err
	}
	m.set("gc.garble_s", garble.Seconds)
	m.set("gc.evaluate_s", evaluate.Seconds)
	m.set("gc.and_gates", float64(work.ANDGates))
	m.set("gc.table_mib", float64(work.TableBytes)/mib)
	m.set("gc.run_batch_s", batch.Seconds)
	m.set("gc.allocs", batch.Mallocs)

	// core: the protocol steps themselves.
	cp, err := openCorePair(rs, scheme, workers)
	if err != nil {
		return 0, err
	}
	defer cp.Close()
	sentBefore = cp.tripletBytes()
	trip, err := measured(cp.triplets)
	if err != nil {
		return 0, err
	}
	m.set("core.triplets_s", trip.Seconds)
	m.set("core.triplets_ots", float64(totalOTs))
	m.set("core.triplets_multibatch_share", share(float64(multiBatch), float64(totalOTs)))
	m.set("core.triplets_allocs_per_ot", share(trip.Mallocs, float64(totalOTs)))
	m.set("core.triplets_alloc_mib", trip.AllocBytes/mib)
	m.set("core.triplets_comm_mib", float64(cp.tripletBytes()-sentBefore)/replayReps/mib)

	reluNeurons, pooled := rs.activations()
	var relu, pool, argmax sample
	sentBefore = cp.nonlinearBytes()
	if reluNeurons > 0 {
		if relu, err = measured(func() error { return cp.relu(rs) }); err != nil {
			return 0, err
		}
	}
	m.set("core.relu_s", relu.Seconds)
	m.set("core.relu_neurons", float64(reluNeurons))
	m.set("core.relu_allocs_per_neuron", share(relu.Mallocs, float64(reluNeurons)))
	m.set("core.relu_comm_mib", float64(cp.nonlinearBytes()-sentBefore)/replayReps/mib)
	if pooled > 0 {
		if pool, err = measured(func() error { return cp.pool(rs) }); err != nil {
			return 0, err
		}
	}
	m.set("core.pool_s", pool.Seconds)
	if rs.ArgmaxN > 0 {
		if argmax, err = measured(func() error { return cp.argmax(rs) }); err != nil {
			return 0, err
		}
	}
	m.set("core.argmax_s", argmax.Seconds)

	blocking = relu.Seconds + pool.Seconds + argmax.Seconds + mul.Seconds
	if tripletsOnPath {
		blocking += trip.Seconds
	}
	return blocking, nil
}
