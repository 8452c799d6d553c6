// vis::SettlementLog unit semantics and the repair-carry soundness
// property.
//
// The property half is the ISSUE's "carried tuple's search range is
// provably disjoint from the advance delta", stated over the objects the
// implementation actually reasons with.  A repair carries a point exactly
// when its retrieval wave's bound b is covered by a capsule (s, r); the
// "advance delta" is the set of indexed obstacles NOT yet in the carried
// graph.  Capsule soundness — every indexed obstacle within r of s is in
// the graph — implies every delta obstacle sits strictly beyond r of s,
// and the Covers triangle inequality then puts it beyond b of the carried
// query: the wave's Theorem-2 search range cannot touch the delta.  The
// tests below brute-force both halves against the full obstacle list:
// capsule soundness after every repair tick, and Covers-implies-complete
// for random probe segments.

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/coknn.h"
#include "core/workspace.h"
#include "datagen/datasets.h"
#include "geom/distance.h"
#include "rtree/str_bulk_load.h"
#include "vis/settlement_log.h"

namespace conn {
namespace vis {
namespace {

geom::Segment Seg(double ax, double ay, double bx, double by) {
  return geom::Segment{{ax, ay}, {bx, by}};
}

TEST(SettlementLogTest, PublishAndCoverBasics) {
  SettlementLog log;
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.Covers(Seg(0, 0, 1, 0), 0.0));

  log.Publish(Seg(0, 0, 10, 0), 100.0, /*owner=*/7);
  ASSERT_EQ(log.size(), 1u);

  // The same segment is trivially within itself: covered iff the bound
  // leaves the epsilon margin.
  int64_t owner = -1;
  EXPECT_TRUE(log.Covers(Seg(0, 0, 10, 0), 50.0, &owner));
  EXPECT_EQ(owner, 7);
  EXPECT_FALSE(log.Covers(Seg(0, 0, 10, 0), 100.0));

  // A query displaced by d eats d out of the budget: endpoints of
  // y=60 sit 60 from the source, so bounds up to ~40 are covered.
  EXPECT_TRUE(log.Covers(Seg(0, 60, 10, 60), 39.0));
  EXPECT_FALSE(log.Covers(Seg(0, 60, 10, 60), 41.0));

  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.Covers(Seg(0, 0, 10, 0), 1.0));
}

TEST(SettlementLogTest, ZeroRadiusFactsAreDropped) {
  SettlementLog log;
  log.Publish(Seg(0, 0, 1, 0), 0.0, 1);
  log.Publish(Seg(0, 0, 1, 0), -5.0, 1);
  EXPECT_EQ(log.size(), 0u);
}

TEST(SettlementLogTest, RingEvictsOldestFirst) {
  SettlementLog log(/*capacity=*/2);
  log.Publish(Seg(0, 0, 1, 0), 10.0, 1);
  log.Publish(Seg(100, 0, 101, 0), 10.0, 2);
  EXPECT_EQ(log.size(), 2u);

  // Third publish evicts capsule 1: its coverage is gone, capsule 2's and
  // 3's remain.
  log.Publish(Seg(200, 0, 201, 0), 10.0, 3);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_FALSE(log.Covers(Seg(0, 0, 1, 0), 5.0));
  EXPECT_TRUE(log.Covers(Seg(100, 0, 101, 0), 5.0));
  EXPECT_TRUE(log.Covers(Seg(200, 0, 201, 0), 5.0));
}

TEST(SettlementLogTest, MidpointDriftDoesNotFoolTheEndpointBound) {
  // dist-to-segment is convex along q, so the endpoint max IS the max;
  // a query crossing the source (max drift at endpoints, zero at the
  // crossing) must be budgeted by its endpoints, not its midpoint.
  SettlementLog log;
  log.Publish(Seg(0, 0, 10, 0), 50.0, 1);
  // Perpendicular crosser through the source: endpoints 30 away.
  EXPECT_TRUE(log.Covers(Seg(5, -30, 5, 30), 19.0));
  EXPECT_FALSE(log.Covers(Seg(5, -30, 5, 30), 21.0));
}

// --- repair-carry soundness property -------------------------------------

struct RepairScene {
  datagen::DatasetPair pair;
  rtree::RStarTree tp;
  rtree::RStarTree to;
};

RepairScene MakeRepairScene(uint64_t seed) {
  RepairScene s;
  s.pair = datagen::MakeDatasetPair(datagen::PointDistribution::kUniform, 160,
                                    80, seed);
  s.tp = rtree::StrBulkLoad(datagen::ToPointObjects(s.pair.points)).value();
  s.to =
      rtree::StrBulkLoad(datagen::ToObstacleObjects(s.pair.obstacles)).value();
  return s;
}

/// Ids present in the carried graph's local obstacle set.
std::unordered_set<uint64_t> GraphObstacleIds(core::QueryWorkspace* ws) {
  std::unordered_set<uint64_t> ids;
  const ObstacleSet& set = ws->graph()->obstacles();
  for (uint32_t i = 0; i < set.size(); ++i) ids.insert(set.id(i));
  return ids;
}

TEST(SettlementLogProperty, CapsulesAreSoundAfterEveryRepairTick) {
  const RepairScene scene = MakeRepairScene(2026);

  core::ConnOptions opts;
  opts.use_tick_warm_start = true;
  opts.use_differential_repair = true;

  // Two clients leapfrogging along abutting arc slices of one street,
  // sharing a workspace: every tick publishes a capsule, later ticks
  // repair off earlier ones (their own and each other's).
  const geom::Rect cover({3000.0, 3000.0}, {7000.0, 7000.0});
  core::QueryWorkspace ws(&scene.tp, &scene.to, cover);

  uint64_t carried_total = 0;
  for (int tick = 0; tick < 10; ++tick) {
    const double t = 200.0 * tick;
    const geom::Segment steps[2] = {
        Seg(3500.0 + t, 4000.0, 3700.0 + t, 4000.0),
        Seg(3600.0 + t, 4120.0, 3800.0 + t, 4120.0)};
    for (int client = 0; client < 2; ++client) {
      const core::TickWarmStart warm{/*prior=*/nullptr,
                                     /*client_tag=*/client + 1};
      const core::CoknnResult got = core::CoknnQuery(
          scene.tp, scene.to, steps[client], /*k=*/3, opts, &ws, warm);
      ASSERT_EQ(got.stats.repairs_applied, 1u) << "ran fresh, not repaired";
      carried_total += got.stats.tuples_carried;

      // Bit-identity against a fresh evaluation at every step.
      const core::CoknnResult want =
          core::CoknnQuery(scene.tp, scene.to, steps[client], 3);
      ASSERT_EQ(got.tuples.size(), want.tuples.size());
      for (size_t i = 0; i < got.tuples.size(); ++i) {
        ASSERT_EQ(got.tuples[i].candidates.size(),
                  want.tuples[i].candidates.size());
        for (size_t c = 0; c < got.tuples[i].candidates.size(); ++c) {
          EXPECT_EQ(got.tuples[i].candidates[c].pid,
                    want.tuples[i].candidates[c].pid);
        }
      }

      // Capsule soundness against the full indexed obstacle list: every
      // obstacle within a capsule's radius of its source is in the graph
      // — equivalently, every absent obstacle (the advance delta) lies
      // strictly beyond the radius, so any covered (carried) search range
      // is disjoint from the delta.
      const std::unordered_set<uint64_t> present = GraphObstacleIds(&ws);
      for (const SettlementLog::Capsule& cap :
           ws.settlement_log()->capsules()) {
        for (size_t o = 0; o < scene.pair.obstacles.size(); ++o) {
          if (geom::MinDistRectSegment(scene.pair.obstacles[o], cap.source) <=
              cap.radius) {
            EXPECT_TRUE(present.count(o))
                << "tick " << tick << " client " << client << ": obstacle "
                << o << " inside capsule radius " << cap.radius
                << " but absent from the carried graph";
          }
        }
      }
    }
  }
  EXPECT_GT(ws.settlement_log()->size(), 0u);
  EXPECT_GT(carried_total, 0u) << "no wave was ever covered; test is vacuous";
}

TEST(SettlementLogProperty, CoversImpliesNoAbsentObstacleWithinBound) {
  const RepairScene scene = MakeRepairScene(777);

  core::ConnOptions opts;
  opts.use_tick_warm_start = true;
  opts.use_differential_repair = true;
  const geom::Rect cover({2000.0, 2000.0}, {8000.0, 8000.0});
  core::QueryWorkspace ws(&scene.tp, &scene.to, cover);

  // Seed the log with a few real retrievals.
  for (int tick = 0; tick < 4; ++tick) {
    const double t = 150.0 * tick;
    const core::TickWarmStart warm{nullptr, 1};
    const geom::Segment q = Seg(4000.0 + t, 5000.0, 4220.0 + t, 5030.0);
    const core::CoknnResult seeded =
        core::CoknnQuery(scene.tp, scene.to, q, 3, opts, &ws, warm);
    ASSERT_EQ(seeded.stats.repairs_applied, 1u) << "ran fresh, not repaired";
  }
  ASSERT_GT(ws.settlement_log()->size(), 0u);

  // Probe segments at growing displacements from the seeded routes; for
  // every (q, b) the log claims covered, brute force must find no absent
  // obstacle within b of q.
  const std::unordered_set<uint64_t> present = GraphObstacleIds(&ws);
  size_t covered_probes = 0;
  for (int i = 0; i < 40; ++i) {
    const double dx = 37.0 * i;
    const geom::Segment q =
        Seg(3950.0 + dx, 4950.0 + 3.0 * i, 4150.0 + dx, 4990.0);
    for (double bound : {25.0, 100.0, 400.0, 1600.0}) {
      if (!ws.settlement_log()->Covers(q, bound)) continue;
      ++covered_probes;
      for (size_t o = 0; o < scene.pair.obstacles.size(); ++o) {
        if (present.count(o)) continue;
        EXPECT_GT(geom::MinDistRectSegment(scene.pair.obstacles[o], q), bound)
            << "probe " << i << " bound " << bound << ": absent obstacle "
            << o << " inside a covered search range";
      }
    }
  }
  EXPECT_GT(covered_probes, 0u) << "no probe was covered; test is vacuous";
}

}  // namespace
}  // namespace vis
}  // namespace conn
