#include "sim/neighbor_cache.hpp"

namespace refer::sim {

void NeighborCache::reset(std::size_t n) {
  n_ = n;
  tables_.clear();
  invalidate();
}

NeighborCache::Table* NeighborCache::table_for(double range) {
  for (Table& t : tables_) {
    if (t.range == range) return &t;
  }
  if (tables_.size() == kMaxRangeClasses) return nullptr;
  Table& t = tables_.emplace_back();
  t.range = range;
  t.begin.resize(n_, 0);
  t.len.resize(n_, 0);
  t.stamp.resize(n_, 0);
  return &t;
}

}  // namespace refer::sim
