// Tuning constants shared by the buffer pool's frame-table sharding and by
// the harnesses that watch its behavior (bench/micro_storage.cc's
// pin-contention curve, tests/storage_race_test.cc's eviction churn).
//
// They live in one header so the regression watchpoints move together with
// the pool: a bench or race test still sized against yesterday's constants
// would keep measuring a single latch after the cap moved.

#ifndef CONN_STORAGE_POOL_TUNING_H_
#define CONN_STORAGE_POOL_TUNING_H_

#include <cstddef>

namespace conn {
namespace storage {

/// One latch shard per this many frames (2Q policy only — exact-LRU always
/// runs a single global list so it reproduces the seed LruBuffer's eviction
/// order bit-for-bit).
inline constexpr size_t kFramesPerShard = 32;

/// Hard cap on the number of latch shards a pool will create.  With
/// kFramesPerShard frames per latch this caps latch sharding at a
/// 1024-frame pool, past which the id-interleaved mapping already spreads
/// the batch executor's concurrent pin/unpin traffic thin.
inline constexpr size_t kMaxShards = 32;

/// The 2Q probationary FIFO (A1in) targets shard_capacity / this divisor
/// (minimum 1 frame).
inline constexpr size_t kA1inTargetDivisor = 4;

}  // namespace storage
}  // namespace conn

#endif  // CONN_STORAGE_POOL_TUNING_H_
