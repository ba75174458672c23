# Zmail reproduction build targets.
#
# `make test` is the tier-1 gate used by CI and the roadmap; `make race`
# is the concurrency gate for the striped-ledger work and must also stay
# green. `make check` is the full pre-merge sweep: tier-1, race, chaos,
# fuzz smoke, and determinism.

GO ?= go

.PHONY: build test race bench bench-record bench-compare determinism chaos fuzz-smoke golden lint lint-fixtures obsv wal cluster check all

all: build test

build:
	$(GO) build ./...

# Tier-1: compile everything, vet it, and run the full test suite.
# -shuffle=on randomizes test and subtest order so order-dependent
# tests fail here instead of surprising a later refactor.
test: build
	$(GO) vet ./...
	$(GO) test -shuffle=on ./...

# Concurrency gate: the whole suite under the race detector, including
# the parallel conservation/antisymmetry property tests.
race:
	$(GO) test -race ./...

# Ledger and control-plane benchmarks, serial vs parallel.
bench:
	$(GO) test -run xxx -bench 'EngineSend|EngineSubmitAsync|WorldStep|ISPSubmit|ISPReceive' -benchmem .
	$(GO) test -run xxx -bench 'BuyHandling' -benchmem ./internal/bank/

# Record the hot-path, batching, and checkpoint/replay benchmarks plus
# a real-TCP zload run as BENCH_10.json (ns/op, B/op, allocs/op, the
# derived WAL-vs-JSON checkpoint speedup, which must stay >= 10x, and
# the derived async-admission speedup, which must stay >= 2x).
bench-record:
	$(GO) run ./cmd/zload -isps 2 -regions 2 -users-per-isp 8 \
		-rate 200 -duration 5s -workers 8 -zipf-s 1.2 \
		-remote-frac 0.5 -list-frac 0.1 -list-size 4 -seed 1 \
		-json /tmp/zload_report.json
	{ $(GO) test -run xxx -bench 'EngineSend|EngineSubmitAsync|WorldStep|ISPSubmit|ISPReceive' -benchmem . && \
	  $(GO) test -run xxx -bench 'BuyHandling' -benchmem ./internal/bank/ && \
	  $(GO) test -run xxx -bench 'WALCheckpoint|WALReplay' -benchmem ./internal/isp/ ; } \
		| $(GO) run ./cmd/benchjson -cluster /tmp/zload_report.json -out BENCH_10.json
	cat BENCH_10.json

# Perf-trajectory gate (ROADMAP "perf trajectory as a first-class
# artifact"): the current bench record must hold the named hot paths
# within 10% ns/op of its committed predecessor, carry the hot paths
# this PR introduced (BENCH_NEW_HOT may be absent from the predecessor),
# and show the async admission path >= 2x cheaper than the synchronous
# commit it replaced on the SMTP accept path. Update BENCH_PREV and
# BENCH_CURR when a PR records a new BENCH_<n>.json.
BENCH_PREV    = BENCH_7.json
BENCH_CURR    = BENCH_10.json
BENCH_HOT     = ISPSubmitLocal,ISPSubmitPaidRemote,ISPReceiveRemote,EngineSend,EngineSendParallel
BENCH_NEW_HOT = EngineSubmitAsync
bench-compare:
	$(GO) run ./cmd/benchjson -old $(BENCH_PREV) -new $(BENCH_CURR) \
		-hot $(BENCH_HOT) -new-hot $(BENCH_NEW_HOT) \
		-max-regress 10 -min-admission-speedup 2

# Seeded experiment output must be bit-identical run to run.
determinism:
	$(GO) run ./cmd/zsim > /tmp/zsim_a.txt
	$(GO) run ./cmd/zsim > /tmp/zsim_b.txt
	diff /tmp/zsim_a.txt /tmp/zsim_b.txt && echo deterministic

# Crash-recovery gate: the E20 chaos experiment end to end, plus every
# crash/restart/recovery test across the tree.
chaos:
	$(GO) run ./cmd/zsim -experiment E20
	$(GO) test -run 'Chaos|Crash|Restart|Replay|Recover|Generate|Validate|Auditor|Antisymmetry' \
		./internal/simnet/ ./internal/sim/ ./internal/persist/ ./internal/chaos/ -v

# Wire-codec fuzz smoke: each target runs briefly; go test allows one
# -fuzz pattern per invocation, hence the loop.
fuzz-smoke:
	for f in FuzzDecodeEnvelope FuzzDecodeBodies FuzzReadEnvelope; do \
		$(GO) test -run xxx -fuzz $$f -fuzztime 5s ./internal/wire/ || exit 1; \
	done

# Regenerate the committed golden output after an intentional
# experiment change (cmd/zsim's golden test diffs against it).
golden:
	$(GO) run ./cmd/zsim > zsim_output.txt

# Project-specific static analysis (cmd/zlint): determinism, lock
# order, ledger encapsulation, dropped persistence/crypto errors, plus
# the flow tier (e-penny conservation, nonce replay-taint, spec/wire
# binding). Exits nonzero on any unsuppressed finding.
lint:
	$(GO) run ./cmd/zlint

# Analyzer self-test: sweep the fixture corpus with every pass and pin
# the total finding count. A pass that goes blind (or noisy) changes
# the count and fails here; re-pin after intentional corpus changes.
LINT_FIXTURE_FINDINGS = 83
lint-fixtures:
	$(GO) run ./cmd/zlint -testdata internal/lint/testdata -expect $(LINT_FIXTURE_FINDINGS)

# Observability smoke: boot a zmaild on ephemeral ports with the admin
# telemetry listener, scrape /metrics, and parse the exposition.
obsv:
	$(GO) test -run TestObsvSmoke -v ./cmd/zmaild/

# WAL durability gate: the crash-debris tables (torn tail, truncated
# length prefix, corrupt checksum, snapshot/truncate crash window,
# duplicate segment replay) plus the seeded replay-equivalence check.
wal:
	$(GO) test -run 'WAL' ./internal/persist/ ./internal/isp/ ./internal/bank/ ./internal/sim/ -v

# Real-TCP federation gate: boot 2 ISPs + a two-level zbank hierarchy
# on loopback, run the end-to-end federation suite (paid + zombie mail,
# conservation across every ledger, WAL restart recovery) and drive an
# open-loop zload run against the live cluster — all under -race.
cluster:
	$(GO) test -race -v ./internal/cluster/ ./internal/load/ ./cmd/zload/

# Full pre-merge sweep.
check: test race lint lint-fixtures bench-compare chaos fuzz-smoke determinism obsv wal cluster
