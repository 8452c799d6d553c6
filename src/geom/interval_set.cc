#include "geom/interval_set.h"

#include <algorithm>

#include "common/check.h"

namespace conn {
namespace geom {

IntervalSet::IntervalSet(const Interval& iv) {
  if (!iv.IsEmpty()) intervals_.push_back(iv);
  Normalize();
}

IntervalSet::IntervalSet(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {
  Normalize();
}

void IntervalSet::Normalize() {
  std::erase_if(intervals_, [](const Interval& iv) {
    return iv.IsEmpty() || iv.Length() <= kEpsParam;
  });
  std::sort(intervals_.begin(), intervals_.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::vector<Interval> merged;
  for (const Interval& iv : intervals_) {
    if (!merged.empty() && Adjacent(merged.back(), iv)) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  }
  intervals_ = std::move(merged);
}

double IntervalSet::TotalLength() const {
  double sum = 0.0;
  for (const Interval& iv : intervals_) sum += iv.Length();
  return sum;
}

bool IntervalSet::Contains(double t, double eps) const {
  // Binary search over sorted disjoint intervals.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](double v, const Interval& iv) { return v < iv.lo; });
  if (it != intervals_.begin() && std::prev(it)->ContainsApprox(t, eps)) {
    return true;
  }
  return it != intervals_.end() && it->ContainsApprox(t, eps);
}

IntervalSet IntervalSet::Union(const IntervalSet& o) const {
  std::vector<Interval> all = intervals_;
  all.insert(all.end(), o.intervals_.begin(), o.intervals_.end());
  return IntervalSet(std::move(all));
}

IntervalSet IntervalSet::Intersect(const IntervalSet& o) const {
  std::vector<Interval> out;
  // Linear merge over the two sorted lists.
  size_t i = 0, j = 0;
  while (i < intervals_.size() && j < o.intervals_.size()) {
    const Interval inter = intervals_[i].Intersect(o.intervals_[j]);
    if (!inter.IsEmpty()) out.push_back(inter);
    if (intervals_[i].hi < o.intervals_[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return IntervalSet(std::move(out));
}

IntervalSet IntervalSet::Intersect(const Interval& iv) const {
  return Intersect(IntervalSet(iv));
}

IntervalSet IntervalSet::Subtract(const IntervalSet& o) const {
  std::vector<Interval> out;
  for (const Interval& base : intervals_) {
    double cursor = base.lo;
    for (const Interval& cut : o.intervals_) {
      if (cut.hi < cursor) continue;
      if (cut.lo > base.hi) break;
      if (cut.lo > cursor) out.push_back(Interval(cursor, cut.lo));
      cursor = std::max(cursor, cut.hi);
      if (cursor >= base.hi) break;
    }
    if (cursor < base.hi) out.push_back(Interval(cursor, base.hi));
  }
  return IntervalSet(std::move(out));
}

IntervalSet IntervalSet::Subtract(const Interval& iv) const {
  return Subtract(IntervalSet(iv));
}

IntervalSet IntervalSet::ComplementWithin(const Interval& domain) const {
  return IntervalSet(domain).Subtract(*this);
}

Interval InteriorSpan(const Segment& s, const Rect& r) {
  const Rect inner{{r.lo.x + kEpsInterior, r.lo.y + kEpsInterior},
                   {r.hi.x - kEpsInterior, r.hi.y - kEpsInterior}};
  double t0, t1;
  if (!inner.IsValid() || !ClipSegmentToRect(s, inner, &t0, &t1) ||
      t1 - t0 <= 0.0) {
    return Interval();
  }
  const double len = s.Length();
  return Interval(t0 * len, t1 * len);
}

std::string IntervalSet::ToString() const {
  if (intervals_.empty()) return "{}";
  std::string out = "{";
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) out += ", ";
    out += intervals_[i].ToString();
  }
  out += "}";
  return out;
}

}  // namespace geom
}  // namespace conn
