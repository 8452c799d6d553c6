// Storage-layer microbenchmarks: buffer-pool hit latency, miss/eviction
// churn, pin/unpin latch contention across threads, the decoded-node cache
// on the tree read path, STR sibling readahead, and the LRU pool's faults
// on a fixed skewed trace.  Wired into the bench_smoke CTest label so the
// pool's fast paths stay runnable; absolute numbers are hardware-dependent,
// shapes (hit << miss, contention scaling) are what to watch.  The trace
// replay's `faults` and `hits` are deterministic and gated by
// baselines/BENCH_micro_storage.json.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "rtree/rstar_tree.h"
#include "rtree/str_bulk_load.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace conn {
namespace bench {
namespace {

using storage::BufferOptions;
using storage::Page;
using storage::PageId;
using storage::Pager;
using storage::PinnedPage;

constexpr size_t kFilePages = 2048;

std::unique_ptr<Pager> MakePager(size_t capacity, size_t readahead = 0) {
  auto pager = std::make_unique<Pager>();
  Page p;
  for (size_t i = 0; i < kFilePages; ++i) {
    const PageId id = pager->Allocate();
    p.WriteAt<uint64_t>(0, id);
    CONN_CHECK(pager->Write(id, p).ok());
  }
  BufferOptions opts;
  opts.capacity_pages = capacity;
  opts.readahead_pages = readahead;
  pager->ConfigureBuffer(opts);
  return pager;
}

/// Hit path: working set fits, every fetch pins a resident frame.
void BM_BufferHit(benchmark::State& state) {
  auto pager = MakePager(/*capacity=*/128);
  for (PageId id = 0; id < 64; ++id) CONN_CHECK(pager->Fetch(id).ok());
  pager->ResetCounters();  // exclude the priming faults from hit_rate
  PageId id = 0;
  for (auto _ : state) {
    StatusOr<PinnedPage> view = pager->Fetch(id);
    benchmark::DoNotOptimize(view.value().page().data());
    id = (id + 1) % 64;
  }
  state.counters["hit_rate"] =
      static_cast<double>(pager->hits()) /
      static_cast<double>(pager->hits() + pager->faults());
}
BENCHMARK(BM_BufferHit);

/// Miss path: capacity far below the scan, every fetch evicts and reloads.
void BM_BufferMissChurn(benchmark::State& state) {
  auto pager = MakePager(/*capacity=*/16);
  PageId id = 0;
  for (auto _ : state) {
    StatusOr<PinnedPage> view = pager->Fetch(id);
    benchmark::DoNotOptimize(view.value().page().data());
    id = (id + 1) % kFilePages;
  }
  state.counters["fault_rate"] =
      static_cast<double>(pager->faults()) /
      static_cast<double>(pager->hits() + pager->faults());
}
BENCHMARK(BM_BufferMissChurn);

/// Unbuffered baseline: direct file views (the paper's bs = 0 default).
void BM_UnbufferedFetch(benchmark::State& state) {
  auto pager = MakePager(/*capacity=*/0);
  PageId id = 0;
  for (auto _ : state) {
    StatusOr<PinnedPage> view = pager->Fetch(id);
    benchmark::DoNotOptimize(view.value().page().data());
    id = (id + 1) % kFilePages;
  }
}
BENCHMARK(BM_UnbufferedFetch);

/// Pin/unpin contention: all threads hammer one 1,024-page hot set, all
/// resident in a 1,024-frame pool.  Every fetch takes the pool's one
/// latch, so the thread curve shows what that serialization costs.
void BM_PinContention(benchmark::State& state) {
  constexpr size_t kFrames = 1024;
  static Pager* shared = MakePager(/*capacity=*/kFrames).release();
  Rng rng(0x900D + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    const PageId id = static_cast<PageId>(rng.UniformU64(kFrames));
    StatusOr<PinnedPage> view = shared->Fetch(id);
    benchmark::DoNotOptimize(view.value().page().data());
  }
}
BENCHMARK(BM_PinContention)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

/// STR sibling readahead: sequential leaf-order scan with and without
/// prefetching; the fault counter stays demand-only either way.
void BM_ReadaheadScan(benchmark::State& state) {
  const size_t readahead = static_cast<size_t>(state.range(0));
  auto pager = MakePager(/*capacity=*/64, readahead);
  PageId id = 0;
  for (auto _ : state) {
    StatusOr<PinnedPage> view = pager->Fetch(id);
    benchmark::DoNotOptimize(view.value().page().data());
    id = (id + 1) % kFilePages;
  }
  const double total =
      static_cast<double>(pager->hits() + pager->faults());
  state.counters["fault_rate"] =
      static_cast<double>(pager->faults()) / total;
}
BENCHMARK(BM_ReadaheadScan)->Arg(0)->Arg(8);

/// LRU replay: each iteration builds a fresh 64-frame pool and replays one
/// fixed seeded trace of 4,096 fetches over the file, half of them on a
/// 16-page hot set.  `faults` and `hits` are per pass and deterministic.
void BM_LruTraceReplay(benchmark::State& state) {
  constexpr size_t kFetches = 4096;
  constexpr uint64_t kHotPages = 16;
  std::vector<PageId> trace;
  trace.reserve(kFetches);
  Rng rng(0x7ACE);
  for (size_t i = 0; i < kFetches; ++i) {
    trace.push_back(static_cast<PageId>(
        rng.Bernoulli(0.5) ? rng.UniformU64(kHotPages)
                           : rng.UniformU64(kFilePages)));
  }
  uint64_t faults = 0;
  uint64_t hits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto pager = MakePager(/*capacity=*/64);
    state.ResumeTiming();
    for (const PageId id : trace) {
      StatusOr<PinnedPage> view = pager->Fetch(id);
      benchmark::DoNotOptimize(view.value().page().data());
    }
    faults = pager->faults();
    hits = pager->hits();
  }
  state.counters["faults"] = static_cast<double>(faults);
  state.counters["hits"] = static_cast<double>(hits);
}
BENCHMARK(BM_LruTraceReplay)->Unit(benchmark::kMicrosecond);

/// Tree read path: hot-node fetches against the decoded-node cache
/// (buffered) vs per-read parsing (unbuffered).
void BM_FetchNodeHot(benchmark::State& state) {
  static rtree::RStarTree* tree = [] {
    std::vector<rtree::DataObject> objs;
    Rng rng(0xCAFE);
    objs.reserve(20000);
    for (size_t i = 0; i < 20000; ++i) {
      objs.push_back(rtree::DataObject::Point(
          {rng.Uniform(0, 10000), rng.Uniform(0, 10000)}, i));
    }
    return new rtree::RStarTree(
        std::move(rtree::StrBulkLoad(std::move(objs)).value()));
  }();
  const bool buffered = state.range(0) != 0;
  tree->pager().SetBufferCapacity(buffered ? tree->PageCount() : 0);
  for (auto _ : state) {
    StatusOr<rtree::ConstNodeRef> ref = tree->FetchNode(tree->root());
    benchmark::DoNotOptimize(ref.value()->entries.data());
  }
}
BENCHMARK(BM_FetchNodeHot)->Arg(0)->Arg(1);

}  // namespace
}  // namespace bench
}  // namespace conn

BENCHMARK_MAIN();
