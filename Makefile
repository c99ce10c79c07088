# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race bench perf-smoke tables ablations accuracy conformance goldens fuzz chaos loadtest crashtest docs-check loc loc-check clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# Full suite under the race detector: the concurrency tier, and — being
# every test there is — also the correlation-bank, durable-bank and
# planner tiers (bank and store unit tests, banked/peer-banked/mixed-plan
# 40-seed sweeps, remote offline suite, serve handshake tests).
race:
	$(GO) test -race ./...

# Scaled-down benchmark suite (minutes on one core).
bench:
	$(GO) test -bench=. -benchmem ./...

# The benchmark is a module of its own (benchmark/go.mod), so the root
# `go test ./...` never reaches it: run its unit tests, then one short
# run each of the shaped-WAN workload (wire-bound), the LAN workload
# (kernel-bound), the CNN (the only short one whose garbled-circuit
# batches have several circuits of unequal size, the pool kernel and the
# GC argmax), the banked workload (the only one that fills and draws
# the bank's loopback pools through the benchmark's adapter) and the
# churn workload (one session per request through serve.Runtime: the
# only one whose requests run the base-OT set-up), each of which must end
# with every prediction checked correct against plaintext. The WAN run's
# bytes per prediction are exact, and pinned here too (wire v2: 192
# columns at N = 4): a byte that creeps back fails CI, not a later
# benchmark run.
perf-smoke:
	$(GO) test -C benchmark ./...
	bash benchmark/run.sh --workload mlp_b1_wan --seed 1 --seconds 5 --trace 0 | tail -n 1 | grep '"correct":true' | grep -q '"comm_mib_per_predict":{"value":9.4669008'
	bash benchmark/run.sh --workload mlp_b1_lan --seed 1 --seconds 5 --trace 0 | tail -n 1 | grep -q '"correct":true'
	bash benchmark/run.sh --workload cnn_b1_lan --seed 1 --seconds 5 --trace 0 | tail -n 1 | grep -q '"correct":true'
	bash benchmark/run.sh --workload mlp_b32_banked --seed 1 --seconds 5 --trace 0 | tail -n 1 | grep -q '"correct":true'
	bash benchmark/run.sh --workload serve_churn --seed 1 --seconds 5 --trace 0 | tail -n 1 | grep -q '"correct":true'

# Full paper tables (can take tens of minutes on one core).
tables:
	$(GO) run ./cmd/abnn2-bench

ablations:
	$(GO) run ./cmd/abnn2-bench -ablations

accuracy:
	$(GO) run ./cmd/abnn2-bench -accuracy

# Crash-recovery chaos: SIGKILL a race-built durable server mid-load,
# restart it on the same store directory, and audit the claim journal
# for double-spent correlation ids (plus banked-vs-inline agreement on
# the recovered pools).
crashtest:
	GO="$(GO)" scripts/crashtest.sh

# Fault-injection tier under the race detector: full inference through
# every transport fault class, disconnects at every subprotocol message
# boundary, cancellation, and goroutine-leak checks.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|TestRoundTimeout' -v .
	$(GO) test -race -count=1 -run 'TestChaos' -v ./internal/serve
	$(GO) test -race -count=1 -run 'DisconnectAtEveryMessage|TestOfflineSurvivesPeerDisappearing' ./internal/core
	$(GO) test -race -count=1 ./internal/transport

# Serving-runtime smoke under load: boot a race-enabled server, wait for
# /readyz, hammer it with abnn2-load (which exits non-zero on failures or
# on any retryable rejection missing its retry-after hint), and check the
# shed accounting on /metrics.
loadtest:
	GO="$(GO)" scripts/loadtest.sh

# Conformance tier: the full 200-model differential sweep (secure
# inference vs plaintext QNN, exact equality) plus golden wire
# transcripts and the backend/edge cross-checks. `-short` runs a 40-seed
# cut that still covers the full eta x ring-width grid.
conformance:
	$(GO) test -count=1 ./internal/testkit
	$(GO) test -count=1 -run TestConformanceSmoke .

# Regenerate the golden wire transcripts. Run after an intentional wire
# change only, and read the diff: every byte either party sends is pinned
# there.
goldens:
	$(GO) test ./internal/testkit -run Golden -update

# Short fuzz pass over every fuzz target.
fuzz:
	$(GO) test ./internal/quant -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/nn -fuzz FuzzUnmarshalQuantized -fuzztime 10s
	$(GO) test ./internal/nn -fuzz FuzzUnmarshalModel -fuzztime 10s
	$(GO) test ./internal/ring -fuzz FuzzDecodeVec -fuzztime 10s
	$(GO) test ./internal/transport -fuzz FuzzStreamRecv -fuzztime 10s
	$(GO) test ./internal/transport -fuzz FuzzStreamRoundTrip -fuzztime 10s
	$(GO) test ./internal/par -fuzz FuzzParMap -fuzztime 10s
	$(GO) test ./internal/prg -fuzz FuzzPadDeriverMatchesHash -fuzztime 10s
	$(GO) test ./internal/otext -fuzz FuzzSenderExtend -fuzztime 10s
	$(GO) test ./internal/otext -fuzz FuzzRecvChosen -fuzztime 10s
	$(GO) test ./internal/otext -fuzz FuzzRecvCorrelatedRing -fuzztime 10s
	$(GO) test ./internal/gc -fuzz FuzzEvaluatorRun -fuzztime 10s
	$(GO) test ./internal/gc -fuzz 'FuzzEvaluate$$' -fuzztime 10s
	$(GO) test ./internal/gc -fuzz FuzzGarbleMatchesReference -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzTripletPayloadOneBatch -fuzztime 10s
	$(GO) test ./internal/core -fuzz FuzzTripletPayloadMultiBatch -fuzztime 10s
	$(GO) test ./internal/baseot -fuzz 'FuzzReceive$$' -fuzztime 10s
	$(GO) test ./internal/baseot -fuzz 'FuzzSend$$' -fuzztime 10s
	$(GO) test ./internal/baseot -fuzz FuzzSendMatchesReference -fuzztime 10s
	$(GO) test ./internal/paillier -fuzz FuzzUnmarshalCiphertext -fuzztime 10s
	$(GO) test ./internal/bank -fuzz FuzzScanSegment -fuzztime 10s
	$(GO) test ./internal/bank -fuzz FuzzScanJournal -fuzztime 10s
	$(GO) test ./internal/bank -fuzz FuzzDecodeCorr -fuzztime 10s
	$(GO) test ./internal/plan -fuzz FuzzUnmarshalPlan -fuzztime 10s
	$(GO) test . -fuzz FuzzParseAnnouncement -fuzztime 10s
	$(GO) test . -fuzz FuzzParseOfflineFrame -fuzztime 10s

# Every backticked internal/, cmd/, examples/ or scripts/ path the docs
# cite must exist (CI's static job runs it).
docs-check:
	sh scripts/docs-check.sh

# ROADMAP's size figure: non-test Go lines outside the benchmark module and
# its build directory. "Negative net line count" is checked against this,
# not quoted.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | xargs cat | wc -l

# The size gate (CI's static job runs it): `make loc` may not exceed
# LOC_MAX, the figure the last PR that moved it ended on. A PR that needs
# more lines raises LOC_MAX here, in the open, in its diff.
LOC_MAX = 20295
loc-check:
	@n=$$($(MAKE) -s loc); \
	if [ "$$n" -gt $(LOC_MAX) ]; then echo "loc-check: $$n non-test Go lines, LOC_MAX is $(LOC_MAX)"; exit 1; fi; \
	echo "loc-check: $$n non-test Go lines (LOC_MAX $(LOC_MAX))"

clean:
	$(GO) clean ./...
