GO ?= go

.PHONY: all build test race vet fuzz-smoke explore bench bench-smoke pairs tables loc profile trace timeline live-soak clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Every native fuzz target for FUZZTIME each (go test -fuzz takes one target
# and one package per run). Plain `go test` only replays the seed corpora;
# this is the short search on top.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	internal/wire:FuzzDecode internal/wire:FuzzViewDecode internal/wire:FuzzWalkBatch \
	internal/sim:FuzzPendingSet internal/lincheck:FuzzLincheck internal/pisa:FuzzKeyTable \
	internal/ewo:FuzzCounterTable internal/ewo:FuzzLWWTable internal/ewo:FuzzUpdateCoalescing \
	internal/netem:FuzzMulticastMatchesSends internal/netem/live:FuzzFabricDatagram \
	internal/workload:FuzzMerge
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t#*:} ($${t%:*}, $(FUZZTIME))"; \
		$(GO) test ./$${t%:*} -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime $(FUZZTIME); \
	done

# The explorer's nightly matrix run locally (no CI runs here): N seeds from
# BASE on each of {classic, extended} faults x {chain, retransmit} backend,
# one `go test` per leg under its own timeout. A failing or hanging leg does
# not stop the others; each prints its failing seeds with their replay lines.
# A tool, not a gate: ROADMAP's open seeds (173, 473, 957, ...) fail here.
# A history the linearizability checker cannot decide inside its budget is a
# failure of its own kind ("lincheck-undecided"), and a shrink that met such
# variants says so ("shrink: ..."); each leg's last line counts both.
N ?= 600
BASE ?= 1
EXPLORE_TIMEOUT ?= 5m
explore:
	@failed=0; for faults in classic extended; do for backend in chain retransmit; do \
		echo "== explore: $$faults faults, $$backend backend, seeds $(BASE)..$$(($(BASE)+$(N)-1))"; \
		if out=$$($(GO) test . -run 'TestExplore$$' -count=1 -timeout $(EXPLORE_TIMEOUT) \
			-explore.n=$(N) -explore.base=$(BASE) -explore.faults=$$faults -explore.backend=$$backend 2>&1); then \
			echo "   all seeds pass"; \
		else \
			failed=$$((failed+1)); \
			echo "$$out" | grep -oE 'seed [0-9]+ failed.{0,90}|replay: .*|shrink: .*|swept seeds .*|panic: test timed out.*' || echo "$$out" | tail -n 5; \
		fi; \
	done; done; \
	echo "== explore: $$failed of 4 legs failed"; [ $$failed -eq 0 ]

# Hot-path microbenchmarks + per-experiment wall times.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# The repo benchmark (bench/, named by BENCHMARK.json) is a module of its
# own, so `go build ./... && go test ./...` at the root never compiles it.
# This vets it and runs its quick self-test (~6 s: every workload at smoke
# size, the oracles, BENCHMARK.json's names) against the tree as it stands,
# so an internal API change cannot break the harness unnoticed.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test .

# A change against its parent, as the PR driver measures it: N alternating
# parent/change runs of workload W at the BENCHMARK.json run length (each
# tree builds its own bench/run.sh), fresh seeds, then per end-to-end metric
# both medians and quartile spreads, wins/pairs and the verdict
# (claimable / inside spread / unresolved / worse). PARENT is a checkout of the parent
# commit, e.g. `git clone . /root/scratch/parent`. ~1 min a run.
pairs: N = 10
pairs:
	$(GO) run ./cmd/pairs -w $(W) -n $(N) -parent $(PARENT)

# Regenerate every paper table/claim (every experiment in the DESIGN.md index).
tables:
	$(GO) run ./cmd/benchtab

# Non-test Go lines: the two live-path packages, the two fabrics, the three
# SRO-path packages and the three that share the keyed register resource
# ROADMAP aim 2 is judged on, the explorer with the facade it drives, and the
# module without the benchmark harness.
loc:
	@printf 'internal/wire + internal/netem/live                       %s\n' \
		"$$(cat $$(ls internal/wire/*.go internal/netem/live/*.go | grep -v _test.go) | wc -l)"
	@printf 'internal/netem + internal/netem/live                      %s\n' \
		"$$(cat $$(ls internal/netem/*.go internal/netem/live/*.go | grep -v _test.go) | wc -l)"
	@printf 'internal/chain + internal/controller + internal/core      %s\n' \
		"$$(cat $$(ls internal/chain/*.go internal/controller/*.go internal/core/*.go | grep -v _test.go) | wc -l)"
	@printf 'internal/pisa + internal/ewo + internal/chain              %s\n' \
		"$$(cat $$(ls internal/pisa/*.go internal/ewo/*.go internal/chain/*.go | grep -v _test.go) | wc -l)"
	@printf 'internal/explore + root facade                            %s\n' \
		"$$(cat $$(ls internal/explore/*.go *.go | grep -v _test.go) | wc -l)"
	@printf 'module excluding bench/                                   %s\n' \
		"$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)"

# CPU/heap profiles of the experiment batch. Inspect with `go tool pprof`.
profile:
	$(GO) run ./cmd/benchtab -cpuprofile cpu.pb.gz -memprofile mem.pb.gz > /dev/null
	@echo "wrote cpu.pb.gz mem.pb.gz (go tool pprof cpu.pb.gz)"

# Virtual-time trace of one experiment (override with EXP=E7 etc.); load
# trace.json at ui.perfetto.dev.
EXP ?= E4
trace:
	$(GO) run ./cmd/benchtab -e $(EXP) -trace trace.json -metrics metrics.txt

# Metrics timeline of one sim run (override NF=ddos etc.), schema-validated
# by cmd/timelinecheck. The same JSONL document streams from the live soak
# (-soak.timeline) and from any live swishd role (-live.timeline).
NF ?= lb
timeline:
	$(GO) run ./cmd/swishd -nf $(NF) -duration 100ms -timeline timeline.jsonl
	$(GO) run ./cmd/timelinecheck timeline.jsonl

# Loopback live-cluster soak under the race detector: real UDP transport,
# injected loss, explore oracles over the surviving state, plus the metrics
# timeline (and, on failure, flight recorder) artifacts.
live-soak:
	$(GO) test ./internal/livecluster -race -count=1 -v -run 'TestSoak$$' \
		-soak.budget=2s -soak.loss=0.05 -soak.out=$(CURDIR)/soak-metrics.txt \
		-soak.timeline=$(CURDIR)/soak-timeline.jsonl \
		-soak.flightrec=$(CURDIR)/soak-flightrec.txt
	$(GO) run ./cmd/timelinecheck soak-timeline.jsonl

clean:
	$(GO) clean ./...
	rm -f trace.json metrics.txt timeline.jsonl \
		soak-metrics.txt soak-timeline.jsonl soak-flightrec.txt \
		cpu.pb.gz mem.pb.gz
