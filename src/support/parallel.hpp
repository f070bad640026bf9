// Intra-rank parallel runtime: a persistent thread pool with a
// static-chunking parallel_for.
//
// The simulated distributed runs already use one OS thread per rank
// (comm::World::run), so the pool budgets its intra-rank parallelism to
// compose with the rank threads instead of oversubscribing the machine:
// by default each parallel_for may use hardware_concurrency / rank_threads
// workers (min 1). `DC_NUM_THREADS` overrides the per-call budget
// explicitly, and set_num_threads() does the same programmatically (tests
// use it to pin determinism comparisons).
//
// Determinism contract: the [begin, end) range is cut into contiguous
// chunks whose *boundaries* depend on the thread budget, so callers must
// not let arithmetic grouping (e.g. partial-sum order) follow chunk
// boundaries. Group reductions by fixed indices (per channel, per fixed
// tile) and results are bit-identical for any DC_NUM_THREADS.
#pragma once

#include <cstdint>
#include <functional>

namespace distconv::parallel {

/// Chunk body: fn(chunk_begin, chunk_end) over a sub-range of [begin, end).
using ChunkFn = std::function<void(std::int64_t, std::int64_t)>;

/// Threads a parallel_for call may use, including the calling thread.
/// Priority: set_num_threads() override > DC_NUM_THREADS env >
/// hardware_concurrency / rank_threads (min 1).
int num_threads();

/// Reads DC_NUM_THREADS now: 0 (automatic sizing) when unset, empty or
/// "0"; throws an Error naming the variable unless it is a non-negative
/// integer. num_threads() reads it once.
int num_threads_from_env();

/// Override the per-call thread budget (n <= 0 restores automatic sizing).
void set_num_threads(int n);

/// Hint how many rank threads are running concurrently (set by
/// comm::World::run); automatic sizing divides the hardware by this.
void set_rank_threads(int n);

/// Static-chunked parallel loop over [begin, end). Cuts the range into at
/// most num_threads() contiguous chunks of at least `grain` iterations and
/// runs them on the shared pool; the caller participates, so the call makes
/// progress even when every worker is busy (nested calls included). Blocks
/// until all chunks finish; rethrows the first exception thrown by fn.
/// Runs inline (no pool traffic) when the budget is 1 or the range fits in
/// a single chunk.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const ChunkFn& fn);

/// Element body for parallel_for_2d: fn(i, j) with i ∈ [0, n0), j ∈ [0, n1).
using Elem2dFn = std::function<void(std::int64_t, std::int64_t)>;

/// Static-chunked parallel loop over the flattened 2-D iteration space
/// [0, n0) × [0, n1), row-major (j fastest) — the shared form of the
/// "flattened-plane" idiom the NCHW kernels use for per-(sample, channel) or
/// per-(filter, channel) plane work. fn is invoked once per (i, j) pair;
/// `grain` is the minimum number of flattened pairs per chunk. The same
/// determinism contract as parallel_for applies: chunk boundaries move with
/// the thread budget, so each fn(i, j) must own its outputs and keep any
/// reduction grouped by fixed indices.
void parallel_for_2d(std::int64_t n0, std::int64_t n1, std::int64_t grain,
                     const Elem2dFn& fn);

}  // namespace distconv::parallel
