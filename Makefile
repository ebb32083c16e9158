# Entry points for CI and day-to-day work. `make check` is the gate a PR
# must pass: full build, the whole test suite (alcotest + qcheck + cram,
# including the cache/reach equivalence suites), and — when ocamlformat is
# installed — a formatting check. The format step is skipped, loudly, when
# the tool is absent so the gate still runs on minimal toolchains.

.PHONY: all build test check fmt lint serve-smoke bench-cache bench-analysis bench-server bench-parallel bench-topk bench-rank bench-refine bench-proto bench-scale bench-reload clean

all: build

build:
	dune build @all

test: build
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed — skipping format check"; \
	fi

# The analyzer over everything we ship: API-model and graph lint plus the
# bundled mining corpus, then the example corpus under examples/corpus/.
# --strict promotes warnings, so the gate only passes a spotless model.
# The deviant_*.java seeds are protocol-violating on purpose: the proto
# pass MUST flag them, so that run expects exit code exactly 1 under
# --strict (2 would be a usage/parse error, 0 a silent miss).
lint: build
	dune exec bin/prospector_cli.exe -- lint --strict
	dune exec bin/prospector_cli.exe -- lint --strict \
	  --corpus examples/corpus/editor_input.java \
	  --corpus examples/corpus/workspace_ast.java
	dune exec bin/prospector_cli.exe -- lint --strict --pass proto \
	  --corpus examples/corpus/editor_input.java \
	  --corpus examples/corpus/workspace_ast.java
	dune exec bin/prospector_cli.exe -- lint --strict --pass proto \
	  --corpus examples/corpus/deviant_out_of_order.java \
	  --corpus examples/corpus/deviant_missed_follow.java; \
	test $$? -eq 1

# One live daemon cycle over a real TCP socket: ephemeral port, health
# check, a query, graceful drain. The binary is invoked directly (not via
# `dune exec`) so the backgrounded daemon never holds the dune lock. Any
# failing step stops the daemon and removes the port file before exiting
# nonzero, so a failed run leaves nothing behind.
PROSPECTOR := _build/default/bin/prospector_cli.exe
serve-smoke: build
	@rm -f .smoke-port; \
	$(PROSPECTOR) serve --port 0 --port-file .smoke-port >/dev/null 2>&1 & \
	pid=$$!; \
	fail() { echo "serve-smoke: $$1"; kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; rm -f .smoke-port; exit 1; }; \
	i=0; while [ ! -f .smoke-port ] && [ $$i -lt 200 ]; do sleep 0.1; i=$$((i+1)); done; \
	test -f .smoke-port || fail "daemon never bound a port"; \
	$(PROSPECTOR) client --port-file .smoke-port health || fail "health failed"; \
	$(PROSPECTOR) client --port-file .smoke-port query void org.eclipse.ui.texteditor.DocumentProviderRegistry -n 1 || fail "query failed"; \
	$(PROSPECTOR) client --port-file .smoke-port stats || fail "stats failed"; \
	$(PROSPECTOR) client --port-file .smoke-port shutdown || fail "shutdown failed"; \
	wait $$pid || fail "daemon exited nonzero"; \
	echo "serve-smoke: OK"

check: build test lint serve-smoke bench-cache bench-parallel bench-topk bench-rank bench-refine bench-proto bench-scale bench-reload fmt

# Regenerates BENCH_cache.json (queries with and without the reach index,
# O(1) rejection of unsolvable ones, cold/warm LRU cache latency; every
# timing a median of alternating rounds after a warm-up pass). The section
# exits nonzero if the index or the cache changes any answer, so this is
# the reach-rejection and cache equivalence gate inside `make check`.
bench-cache: build
	dune exec bench/main.exe -- cache

# Regenerates BENCH_analysis.json (query latency with and without a
# Verify.sound re-check of every result, the chains checked and found
# unsound, per-pass lint timings).
bench-analysis: build
	dune exec bench/main.exe -- analysis

# Regenerates BENCH_server.json (warm-daemon throughput and p50/p95 latency
# over a live socket vs the cost of a one-shot CLI invocation).
bench-server: build
	dune exec bench/main.exe -- server

# Regenerates BENCH_parallel.json (1/2/4-domain batch and mining scaling,
# with the host core count; the 4-domain speedups are null on hosts with
# fewer than 4 cores — the determinism booleans in it double as a smoke
# test, so this runs as part of `make check`).
bench-parallel: build
	dune exec bench/main.exe -- parallel

# Regenerates BENCH_topk.json (best-first vs exhaustive search at k=1/10/100
# on the layered 2,000-class world and on a 10k-method mega world:
# wall-clock, materialized-candidate counts, byte-identity booleans, and the
# minor-heap words rendering one k=100 result costs). The section exits
# nonzero if best-first ever diverges from the exhaustive oracle on either
# world (a query whose exhaustive run stops at the path limit certifies
# nothing and is counted apart), or on the allocation limits of the layered
# world's measured k=100 pass, run after a warm-up pass over the same
# queries: more than 1024 words per query straight to the major heap, any
# reallocation of the Topk workspace's tables (an exact count, 0 in steady
# state), or more than 1000 minor-heap words to render one result. This is
# the equivalence and allocation gate inside `make check`.
bench-topk: build
	dune exec bench/main.exe -- topk

# Regenerates BENCH_rank.json (the paper-ranking baseline: MRR of the
# desired solution on Table 1, the 32 extended problems and a Truthgen
# ground-truth world). The section answers every list best-first and
# exhaustively and exits nonzero on divergence, so this is the
# known-answer counterpart of the `topk` gate in `make check`.
bench-rank: build
	dune exec bench/main.exe -- rank

# Regenerates BENCH_refine.json (questions-to-convergence and probe-selection
# latency for refine sessions on Table 1 and a layered synthetic world).
# The section exits nonzero if any session changes the answer (the survivor
# must be the original rank-1) or overruns ceil(log2 k) + 2 questions, so
# this is the spec-by-example gate inside `make check`.
bench-refine: build
	dune exec bench/main.exe -- refine

# Regenerates BENCH_proto.json (protocol mining time and lint throughput
# over the bundled corpus). The section exits nonzero if the mined model
# flags (J010-J012) any solution of the 20 Table 1 and 32 extended
# problems, so this is the protocol vet-clean gate inside `make check`.
bench-proto: build
	dune exec bench/main.exe -- proto

# Regenerates BENCH_scale.json (mega-world generation, search-kernel and
# end-to-end query times, the world's .japi text loaded 5 times (median and
# IQR of japi_load_s), and a two-job run_batch vs one query at a time, at
# 10k/100k methods by default —
# BENCH_SCALE_SIZES=10000,100000,1000000 adds the million-method row).
# The section exits nonzero when the two-job batch differs from one query
# at a time (batch_identical), when run_batch at jobs = 2 on the 100k
# world allocates more than 1024 words per query straight into the major
# heap (parked pool workers keep
# their search workspaces; both domains answer every measured pair once
# before the measurement, so the reading does not depend on which domain
# drew which query), when the graph builder keeps more than 20
# words per edge beyond the hierarchy (builder_words_per_edge, exact: 16.36
# on the 100k world, 25.58 while it kept an edge-dedup hash table), or when
# the hierarchy loaded from .japi keeps more than 21 words per method
# (hierarchy_words_per_method, exact: 19.35 on the 100k world, 45.11 while
# every mention of a name built its own Qname), so this is the scale gate
# inside `make check`.
bench-scale: build
	dune exec bench/main.exe -- --section scale

# Live-reload gate (BENCH_reload.json: single-class delta apply + reach
# patch vs cold rebuild; a sink edit — a method with one reference
# parameter returning a type whose upstream cone earlier edits of that shape
# widened past half the nodes, perfbench reload-10k's usual delta — whose
# best-of-5 reach patch is timed against a cold reach build of the same
# snapshot; an additive delta (a fresh interface with one method) with
# its apply, reach-build and warm times; plus query p50 and maximum latency
# under sustained churn against a full-rebuild baseline, at 10k/100k
# methods by default — BENCH_RELOAD_SIZES overrides). The tail is the
# maximum of the 120 churn samples: the 9 reload stalls are their top 7.5%,
# beyond any percentile's reach. The section exits nonzero if a patched
# snapshot or index diverges from a cold build, a patch fails to beat the
# rebuild stall, the sink edit's reach patch is not strictly cheaper than
# the cold reach build, the churn maximum is not strictly below the rebuild
# baseline's, or incremental patch time grows superlinearly across the
# sizes.
bench-reload: build
	dune exec bench/main.exe -- --section reload

clean:
	dune clean
