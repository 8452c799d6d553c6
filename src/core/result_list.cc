#include "core/result_list.h"

#include <limits>

namespace conn {
namespace core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ResultList::ResultList(const geom::IntervalSet& domain, bool use_lemma1_prune)
    : entries_(UnheldPieces(domain)), use_lemma1_prune_(use_lemma1_prune) {}

double ResultList::RlMax(const geom::SegmentFrame& frame) const {
  return CplMax(entries_, frame);
}

void ResultList::Update(int64_t pid, const ControlPointList& cpl,
                        const geom::SegmentFrame& frame, QueryStats* stats) {
  for (const CplEntry& ce : cpl) {
    if (!ce.has_value()) continue;  // p cannot reach this interval at all
    ContestEntries(&entries_, pid, ce.cp, ce.offset,
                   geom::IntervalSet(ce.range), frame, use_lemma1_prune_,
                   stats);
  }
}

double ResultList::OdistAt(double t, const geom::SegmentFrame& frame) const {
  for (const CplEntry& e : entries_) {
    if (e.range.ContainsApprox(t)) {
      if (!e.has_value()) return kInf;
      return e.Curve(frame).Eval(t);
    }
  }
  return kInf;
}

int64_t ResultList::OnnAt(double t) const {
  for (const CplEntry& e : entries_) {
    if (e.range.ContainsApprox(t)) return e.pid;
  }
  return kNoPoint;
}

}  // namespace core
}  // namespace conn
