# Tier-1 verification and housekeeping for the flowrank module.
# CI (.github/workflows/ci.yml) runs `make check`, `make race` and the
# bench-smoke commands below, so local and CI verification stay aligned.

GO ?= go

.PHONY: all build test short short-times vet fmt check race bench bench-pairs identity microbench bench-smoke e2e e2e-daemon fuzz-smoke cover lint loc examples

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast loop: skips the long Monte-Carlo and paper-scale experiments.
short:
	$(GO) test -short ./...

# The short suite uncached, packages by wall time, slowest first, with the
# sum, then the ten slowest top-level tests of the same -json run: the
# figure ROADMAP quotes for "is the suite fast enough that people run it"
# gets a trend line, and so do the tests that make it (CI's test job
# prints it, non-blocking).
short-times:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) test -short -count=1 -json ./... > "$$out"; \
	sed -nE 's/.*"Action":"(pass|fail)","Package":"([^"]*)","Elapsed":([0-9.eE+-]+).*/\3 \1 \2/p' "$$out" \
		| sort -rn \
		| awk '{ printf "%8.2fs  %s  %s\n", $$1, $$2, $$3; sum += $$1 } END { printf "%8.2fs  sum over %d packages\n", sum, NR }'; \
	echo "ten slowest tests:"; \
	sed -nE 's/.*"Action":"(pass|fail)","Package":"([^"]*)","Test":"([^"/]*)","Elapsed":([0-9.eE+-]+).*/\4 \1 \2.\3/p' "$$out" \
		| sort -rn | head -10 \
		| awk '{ printf "%8.2fs  %s  %s\n", $$1, $$2, $$3 }'

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean (covers the root module and the
# tools/flowrank-lint module; gofmt -l walks both from the repo root).
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: vet fmt build test

# Static analysis: build the flowrank-lint multichecker (its own module
# under tools/, stdlib-only), run its analyzer test suites, then run all
# five analyzers (maporder, wallclock, hotpath, errsentinel, facadedoc)
# over every package of the root module. Zero findings is the contract;
# deliberate exemptions carry //flowrank: directives. Last, the library
# facade must not link the daemon: the root package's dependency closure
# may hold none of net/http, internal/daemon, internal/pipeline or
# internal/promexp (cmd/flowrankd imports those directly).
lint:
	cd tools/flowrank-lint && $(GO) test ./...
	cd tools/flowrank-lint && $(GO) build -o flowrank-lint .
	./tools/flowrank-lint/flowrank-lint ./...
	@bad="$$($(GO) list -deps . | grep -xE 'net/http|flowrank/internal/(daemon|pipeline|promexp)')"; \
	if [ -n "$$bad" ]; then \
		echo "the flowrank facade links daemon-only packages:"; echo "$$bad"; exit 1; \
	fi

# The figure deletion PRs quote (CHANGES.md, since PR 19): lines of
# non-test Go in the root module as committed or staged — the benchmark
# harness, the lint tool and the examples are their own concerns. One line
# per package directory, largest first, then the total alone on the last
# line (what `make loc | tail -1` reads).
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^bench/\|^tools/\|^examples/' | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; sum += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -rn"; close("sort -rn"); print sum }'

# Build and run every program under examples/ (none writes a file); the
# first non-zero exit fails the target. `go build ./...` only compiles
# them. About 20 s on two vCPUs, anomaly and pricing the longest.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run "./$$d" || exit 1; done

# Race detector over the short suite: the stream engine's shard workers,
# the parallel outer quadrature and the simulators' run workers are the
# concurrency hot spots. packetgen runs ten times over: Stream's producer
# goroutine hands windows to the caller through two channels, and its
# lifetime tests count goroutines exactly.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -count=10 ./internal/packetgen

# The repo's benchmark (BENCHMARK.json): bench/ drives the real binaries
# over its four workloads and prints one result document; see
# bench/README.md for -compare and the per-workload bounds.
bench:
	cd bench && $(GO) run . -seed 1

# The pair protocol a performance change is judged by (ROADMAP 1(d); PRs
# 17-23 each ran it by hand): N alternating runs of one workload in an
# export of BASE and in this tree, medians, quartiles, ratio and pair wins
# per end-to-end metric. Fails only on the correctness gate.
#   make bench-pairs BASE=HEAD~1 WORKLOAD=daemon-scrape [N=10] [SEED=1]
N ?= 10
SEED ?= 1
bench-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs BASE=<rev> WORKLOAD=<name> [N=10] [SEED=1]"; exit 2; }
	./scripts/bench_pairs.sh "$(BASE)" "$(WORKLOAD)" "$(N)" "$(SEED)"

# Byte identity between revision BASE and the working tree, cell by cell,
# over the monitor matrix (scripts/matrix.txt: flowtop's stdout, NetFlow
# bytes and bin journal less its timings, each row at -workers 1 to 4, and
# every trace the rows read). A row the base flowtop cannot parse is
# reported as new. scripts/matrix.sh; about 25 s on two vCPUs after the
# builds; needs jq.
identity:
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<rev>"; exit 2; }
	./scripts/matrix.sh "$(BASE)"

# Every Go micro-benchmark of the root module, one iteration each.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# What CI's bench-smoke job runs: the benchmark module's own vet and unit
# tests, the layer micro-benchmarks, and four figures through
# flowrank-bench (the kernels model figure, the network-wide coordination
# and dynamic control-plane figures and the bounded-memory sketch figure),
# which exits non-zero when an experiment fails. BenchmarkRequiredRate reports the rate
# solve's metric evaluations as evals/op (6 on the adapt-loop model) and
# BenchmarkRankingMetric one evaluation's integrand probes as probes/op
# (11 640 at p = 0.9 on the same model): a regression in the search or in
# the integrator shows as a count that repeats exactly, not as a slow suite.
# Beside them run BenchmarkRankingMetricSprint (one evaluation of the
# ranking metric on the sprint model, N = 700 000, Pareto mean 9.6,
# α = 1.5, p = 0.1), BenchmarkMisrankExact (Eq. 1 alone) and
# BenchmarkRankingMetricSpliced (one evaluation over a spliced sample-body
# + Pareto-tail law), and in internal/netsample BenchmarkNetworkDynamicLoop
# (one pass of the per-bin network control plane over a churning workload).
# BenchmarkStreamPackets expands flow traces into packets (packetgen.Stream,
# what tracegen -packets/-pcap and the fastpath figure's packet path run)
# and reports ns/pkt and allocs/op: a 2000-flow sprint5 trace (90 allocs)
# and batch-exact's trace, 2.7 M packets from ~100 k concurrently active
# flows (~175 allocs). The allocations are the growth of the merge's own
# slices (two windows, the radix sort's spare buffer, the active flows)
# and its goroutine and channels, nothing per flow or per packet.
# BenchmarkSourceDecode reads a trace through a source in both formats and
# reports ns/pkt and allocs: what the source layer charges every packet
# before the sampling decision — an in-memory trace of each format read
# synchronously, 2 M packets an iteration, and a 72 MB capture file
# (pcap-large) that a goroutine decodes ahead, in batches of keyed packets.
# BenchmarkIngestFlatBatch (matched by 'Ingest') sets the engine's batched
# exact-table ingest against the per-packet one on a million-flow table
# (ns/pkt), BenchmarkIngest{CountMin,SpaceSaving}Batch do the same for the
# 4096-slot sketches under a mice-heavy stream; BenchmarkEngine's
# countmin/ runs are the daemon-scrape shard configuration and its warm/
# runs Feed, the hand-off and an exact ingest on a warm one-worker engine,
# in ns/pkt and allocs/pkt (0) for both aggregations; BenchmarkBinClose
# is the bin boundary alone (ns/flow, ns/bin, allocs/op: 0 on the warm/
# runs) on batch-exact's shape (280k flows, one shard), adapt-loop's (47k
# flows, two shards, p = 0.1) and sparse-after-dense, daemon-scrape's quiet
# bins: 10-flow bins on two shards with 4096-slot Count-Min sampled tables,
# after a 100k-flow bin has grown the exact originals to 131 072 slots —
# a close that costs the tables' size instead of the bin's flows shows
# there as ns/bin.
# BenchmarkInvert runs every inverter on daemon-scrape's sampled bin
# (p = 0.01) and adapt-loop's (p = 0.1), in ns/op and allocs/op.
# BenchmarkSampler times a Bernoulli decision in ns/pkt: one Sample call
# per packet at p = 0.01, and one SampleBlock call per 256 packets (the
# block the engine draws) at p from 1e-4 to 0.99, both sides of the rate
# below which the sampler draws geometric gaps.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...
	$(GO) test -run '^$$' -bench 'StreamPackets|StreamEngine|NetworkCoord|ExtensionSketch' -benchtime 1x
	$(GO) test -run '^$$' -bench '^BenchmarkInvert$$' -benchtime 1x ./internal/invert
	$(GO) test -run '^$$' -bench '^BenchmarkSampler$$' -benchtime 1000x ./internal/sampler
	$(GO) test -run '^$$' -bench '^Benchmark(RequiredRate|RankingMetric|RankingMetricSprint|RankingMetricSpliced|MisrankExact)$$' -benchtime 1x ./internal/core
	$(GO) test -run '^$$' -bench '^BenchmarkNetworkDynamicLoop$$' -benchtime 1x ./internal/netsample
	$(GO) test -run '^$$' -bench 'Ingest' -benchtime 1x ./internal/flowtable
	$(GO) test -run '^$$' -bench '^Benchmark(Engine|BinClose)$$' -benchtime 1x ./internal/stream
	$(GO) test -run '^$$' -bench '^BenchmarkSourceDecode$$' -benchtime 5x ./internal/source
	$(GO) run ./cmd/flowrank-bench -fig kernels
	$(GO) run ./cmd/flowrank-bench -fig coord
	$(GO) run ./cmd/flowrank-bench -fig dynamic
	$(GO) run ./cmd/flowrank-bench -fig sketch

# The monitor matrix within the working tree (scripts/matrix.sh, about
# 20 s on two vCPUs; needs jq): every exact row byte-identical at -workers
# 1 to 4, every bounded row with its exact row's original side, every
# journal valid with one staged record per bin, and every capture above
# source.Open's decode-ahead threshold read the same through a pipe.
e2e:
	./scripts/matrix.sh

# End-to-end flowrankd check: flowrankd and flowtop are two front-ends of
# one pipeline (internal/pipeline), so this guards the front-ends, not a
# second implementation. One daemon run of the matrix's
# native-parametric-adapt row, with -journal and -pprof: /metrics must
# match flowtop's report and expose the stage and runtime series, the heap
# profile must answer, the journal must validate and sum to /metrics'
# sampled packets, and SIGTERM must drain cleanly.
e2e-daemon:
	./scripts/e2e_daemon.sh

# Brief native fuzz runs (~64 s total) over the wire-format edges (the
# NetFlow decode/encode round trip, the pcap reader/writer, the native
# packet-trace reader; both trace readers' ReadBlock, over bufio,
# differentially against their unbuffered reference readers; the
# frame-to-key parse against the struct decoders), the flat flow table's open-addressing
# machinery, the sketches' hash-probed slot index (against a Go map) and
# the bin journal's validator (an accepted bin line decodes into BinRecord,
# and journaled again it validates again).
# Long runs are for dedicated fuzzing sessions; this keeps the harnesses
# and seed corpora green.
fuzz-smoke:
	$(GO) test ./internal/netflow -run '^$$' -fuzz '^FuzzDecodeDatagram$$' -fuzztime 8s
	$(GO) test ./internal/netflow -run '^$$' -fuzz '^FuzzExportRoundTrip$$' -fuzztime 8s
	$(GO) test ./internal/pcap -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 7s
	$(GO) test ./internal/pcap -run '^$$' -fuzz '^FuzzWriterRoundTrip$$' -fuzztime 7s
	$(GO) test ./internal/packet -run '^$$' -fuzz '^FuzzPacketReader$$' -fuzztime 7s
	$(GO) test ./internal/layers -run '^$$' -fuzz '^FuzzFlowKey$$' -fuzztime 6s
	$(GO) test ./internal/flowtable -run '^$$' -fuzz '^FuzzFlatProbe$$' -fuzztime 8s
	$(GO) test ./internal/flowtable -run '^$$' -fuzz '^FuzzSlotsIndex$$' -fuzztime 6s
	$(GO) test ./internal/pipeline -run '^$$' -fuzz '^FuzzValidateJournal$$' -fuzztime 6s

# Short-suite coverage with a ratchet: fails when total coverage drops
# more than a point below the committed .coverage-baseline.
cover:
	./scripts/coverage_ratchet.sh
