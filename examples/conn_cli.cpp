// conn_cli: command-line front end for the library.
//
// Generates a synthetic dataset pair (Section 5.1 style) and answers
// ad-hoc queries against it.  A practical smoke-test harness for anyone
// adopting the library:
//
//   conn_cli conn   --points 3000 --obstacles 6000 --q 1000,1000,1450,1200
//   conn_cli coknn  --k 3 --q 500,500,950,700
//   conn_cli onn    --at 5000,5000 --k 5
//   conn_cli range  --at 5000,5000 --radius 800
//   conn_cli bench  --queries 5 --ql 4.5 --k 5
//
// All flags have defaults; run with --help for the list.  A malformed or
// out-of-range value prints the usage and exits 1.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/coknn.h"
#include "core/conn.h"
#include "core/obstructed_range.h"
#include "core/onn.h"
#include "datagen/datasets.h"
#include "datagen/workload.h"
#include "rtree/str_bulk_load.h"

namespace {

struct Flags {
  std::string command = "conn";
  size_t points = 3000;
  size_t obstacles = 6000;
  uint64_t seed = 42;
  std::string dist = "clustered";  // uniform | zipf | clustered
  size_t k = 5;
  double radius = 500.0;
  double ql = 4.5;
  size_t queries = 3;
  conn::geom::Vec2 at{5000, 5000};
  conn::geom::Segment q{{1000, 1000}, {1450, 1200}};
};

void PrintHelp() {
  std::puts(
      "usage: conn_cli <conn|coknn|onn|range|bench> [flags]\n"
      "  --points N       data set cardinality            (default 3000)\n"
      "  --obstacles N    obstacle set cardinality        (default 6000)\n"
      "  --dist D         uniform | zipf | clustered      (default clustered)\n"
      "  --seed S         generator seed                  (default 42)\n"
      "  --k K            neighbors per position, >= 1    (default 5)\n"
      "  --radius R       range query radius, >= 0        (default 500)\n"
      "  --q x1,y1,x2,y2  query segment                   (conn/coknn)\n"
      "  --at x,y         query point                     (onn/range)\n"
      "  --ql P           query length, % of space side    (bench)\n"
      "  --queries N      workload size, >= 1             (bench)");
}

/// A whole decimal unsigned integer: no sign, no trailing text.
template <typename T>
bool ParseUnsigned(const char* s, T* out) {
  if (!std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = static_cast<T>(v);
  return static_cast<unsigned long long>(*out) == v;
}

/// \p n comma-separated finite numbers and nothing else.
bool ParseDoubles(const char* s, double* out, int n) {
  for (int i = 0; i < n; ++i) {
    char* end = nullptr;
    out[i] = std::strtod(s, &end);
    if (end == s || !std::isfinite(out[i])) return false;
    if (*end != (i + 1 < n ? ',' : '\0')) return false;
    s = end + 1;
  }
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  if (argc < 2) return false;
  f->command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s requires a value\n", key.c_str());
      return false;
    }
    const char* val = argv[i + 1];
    double v[4] = {};
    bool ok = true;
    if (key == "--points") {
      ok = ParseUnsigned(val, &f->points);
    } else if (key == "--obstacles") {
      ok = ParseUnsigned(val, &f->obstacles);
    } else if (key == "--seed") {
      ok = ParseUnsigned(val, &f->seed);
    } else if (key == "--dist") {
      f->dist = val;
      ok = f->dist == "uniform" || f->dist == "zipf" || f->dist == "clustered";
    } else if (key == "--k") {
      ok = ParseUnsigned(val, &f->k) && f->k >= 1;
    } else if (key == "--radius") {
      ok = ParseDoubles(val, &f->radius, 1) && f->radius >= 0.0;
    } else if (key == "--ql") {
      ok = ParseDoubles(val, &f->ql, 1) && f->ql >= 0.0;
    } else if (key == "--queries") {
      ok = ParseUnsigned(val, &f->queries) && f->queries >= 1;
    } else if (key == "--at") {
      ok = ParseDoubles(val, v, 2);
      f->at = {v[0], v[1]};
    } else if (key == "--q") {
      ok = ParseDoubles(val, v, 4);
      f->q = conn::geom::Segment({v[0], v[1]}, {v[2], v[3]});
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(), val);
      return false;
    }
  }
  return true;
}

conn::datagen::PointDistribution DistOf(const std::string& name) {
  if (name == "uniform") return conn::datagen::PointDistribution::kUniform;
  if (name == "zipf") return conn::datagen::PointDistribution::kZipf;
  return conn::datagen::PointDistribution::kClustered;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      return 0;
    }
  }
  Flags f;
  if (!ParseFlags(argc, argv, &f)) {
    PrintHelp();
    return 1;
  }
  if (f.command != "conn" && f.command != "coknn" && f.command != "onn" &&
      f.command != "range" && f.command != "bench") {
    std::fprintf(stderr, "unknown command %s\n", f.command.c_str());
    PrintHelp();
    return 1;
  }

  std::printf(
      "building dataset: |P|=%zu (%s), |O|=%zu street rects, seed %llu\n",
      f.points, f.dist.c_str(), f.obstacles,
      static_cast<unsigned long long>(f.seed));
  const auto pair = conn::datagen::MakeDatasetPair(DistOf(f.dist), f.points,
                                                   f.obstacles, f.seed);
  auto tp = std::move(conn::rtree::StrBulkLoad(
                          conn::datagen::ToPointObjects(pair.points)))
                .value();
  auto to = std::move(conn::rtree::StrBulkLoad(
                          conn::datagen::ToObstacleObjects(pair.obstacles)))
                .value();
  std::printf("trees: %zu + %zu pages (4 KB each)\n\n", tp.PageCount(),
              to.PageCount());

  if (f.command == "conn") {
    const auto r = conn::core::ConnQuery(tp, to, f.q);
    std::printf("CONN over (%.0f,%.0f)-(%.0f,%.0f):\n", f.q.a.x, f.q.a.y,
                f.q.b.x, f.q.b.y);
    for (const auto& [pid, range] : r.MergedByPoint()) {
      std::printf("  point %-6lld on [%8.2f, %8.2f]  (odist %.2f at middle)\n",
                  static_cast<long long>(pid), range.lo, range.hi,
                  r.OdistAt(range.Mid()));
    }
    std::printf("%s\n", r.stats.ToString().c_str());
  } else if (f.command == "coknn") {
    const auto r = conn::core::CoknnQuery(tp, to, f.q, f.k);
    std::printf("CO%zuNN: %zu intervals\n", f.k, r.tuples.size());
    for (const auto& t : r.tuples) {
      std::printf("  [%8.2f, %8.2f] -> {", t.range.lo, t.range.hi);
      for (size_t i = 0; i < t.candidates.size(); ++i) {
        std::printf("%s%lld", i ? "," : "",
                    static_cast<long long>(t.candidates[i].pid));
      }
      std::printf("}\n");
    }
    std::printf("%s\n", r.stats.ToString().c_str());
  } else if (f.command == "onn") {
    const auto r = conn::core::OnnQuery(tp, to, f.at, f.k);
    std::printf("ONN(%zu) at (%.0f, %.0f):\n", f.k, f.at.x, f.at.y);
    for (const auto& n : r.neighbors) {
      std::printf("  point %-6lld odist %.2f\n",
                  static_cast<long long>(n.pid), n.odist);
    }
    std::printf("%s\n", r.stats.ToString().c_str());
  } else if (f.command == "range") {
    const auto r = conn::core::ObstructedRangeQuery(tp, to, f.at, f.radius);
    std::printf("range(%.0f) at (%.0f, %.0f): %zu members\n", f.radius,
                f.at.x, f.at.y, r.members.size());
    for (size_t i = 0; i < std::min<size_t>(r.members.size(), 20); ++i) {
      std::printf("  point %-6lld odist %.2f\n",
                  static_cast<long long>(r.members[i].pid),
                  r.members[i].odist);
    }
    std::printf("%s\n", r.stats.ToString().c_str());
  } else if (f.command == "bench") {
    conn::datagen::WorkloadOptions wopts;
    wopts.query_length = conn::datagen::QueryLengthFromPercent(f.ql);
    const auto workload = conn::datagen::MakeWorkload(
        f.queries, conn::datagen::Workspace(), wopts, {}, f.seed * 7 + 1);
    conn::QueryStats total;
    for (const auto& q : workload) {
      total += conn::core::CoknnQuery(tp, to, q, f.k).stats;
    }
    const conn::QueryStats avg = total.AveragedOver(workload.size());
    std::printf("CO%zuNN x %zu queries (ql=%.1f%%): avg %s\n", f.k,
                workload.size(), f.ql, avg.ToString().c_str());
  } else {
    PrintHelp();
    return 1;
  }
  return 0;
}
