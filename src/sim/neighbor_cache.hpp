// Epoch-validated neighbor-row cache over the spatial grid.
//
// Every CSMA medium scan (Channel::reserve_tx_slot), broadcast receiver
// materialisation and routing reachable query funnels through
// World::visit_reachable, which -- with only the grid -- walks the cells
// intersecting the query radius, gathers candidates and sorts them into
// ascending NodeId order *per query*.  Under load the same node queries
// the same radius thousands of times between mobility re-bins, so the
// cell walk + sort is pure repetition.  This cache remembers the sorted
// candidate row per (node, range class) and turns repeat queries into a
// linear walk of a flat array.
//
// Layout: one Table per distinct query radius ("range class" -- sensor
// range, actuator range, and any range_override such as flooding's
// query_tx_range).  Each table is CSR-shaped: per-node (begin, len)
// offsets into one shared append-only pool of NodeIds, rows stored in
// ascending id order, plus a parallel pool of each candidate's binned
// anchor.  Rows for different nodes share the pool, so a table's
// steady-state footprint is O(sum of row lengths) and rebuilding a row
// after an invalidation reuses the pool's capacity -- no steady-state
// allocations (pinned by a counting-operator-new test).
//
// Correctness rides the SpatialIndex validity deadlines.  The index
// guarantees every binned position is at most `slack` metres stale at
// revalidate() times; a re-bin is exactly the moment that guarantee was
// about to expire for some node.  The cache therefore keys validity on a
// single global epoch: any re-bin (or full rebuild) bumps it, and a row
// stamped with an older epoch is a miss.  Within one epoch the querying
// node and every candidate each stay within `slack` of their anchors, so
// two nodes in range r of each other have anchors at most r + 2*slack
// apart.  World builds a row around the *owner's anchor*:
// collect(anchor(from), r + slack), and collect() adds the second slack.
// That is exactly the set that can come into range before the next
// re-bin, a *superset* of the true in-range set for every query the row
// serves.  World's exact per-candidate check (alive + within_range on
// live positions, ascending id order) then yields results bit-identical
// to the uncached scan.  Liveness flips need no invalidation at all:
// dead nodes stay binned and are filtered by the walk, exactly as on the
// uncached path.
//
// The stored anchors let the walk settle most candidates without their
// live positions: within the epoch a candidate's live position stays
// within `slack` of its anchor, so for the anchor distance d from the
// querying node's live position,
//   d > r + slack  =>  certainly out of range, skip;
//   d < r - slack  =>  certainly in range, accept;
// only the annulus in between needs the exact live-position check
// (World::walk_row).
//
// A Row is a pair of raw pointers into a table's pools, valid until the
// next store(): a store may append to the pool (relocating it) or
// recycle it.  World's walk copies what it needs out of the row before
// it calls any handler, so a handler that re-enters visit_reachable
// (flooding does) and misses cannot invalidate a walk in progress.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/spatial_index.hpp"  // NodeId

namespace refer::sim {

class NeighborCache {
 public:
  /// Distinct query radii cached simultaneously.  Workloads use two or
  /// three (sensor range, actuator range, flooding's query_tx_range);
  /// a radius beyond the cap gets its row built into a spill table that
  /// holds one row at a time, so every query still walks a row.
  static constexpr std::size_t kMaxRangeClasses = 8;

  /// A view of one row: `len` ascending ids and their binned anchors.
  /// Valid until the next store() (see the file comment).
  struct Row {
    const NodeId* ids = nullptr;
    const Point* anchors = nullptr;
    std::uint32_t len = 0;
  };

  /// Counters exported as world.neighbor_cache.* observability.
  struct Stats {
    std::uint64_t hits = 0;           ///< queries served from a cached row
    std::uint64_t rebuilds = 0;       ///< rows (re)built from the grid
    std::uint64_t invalidations = 0;  ///< epoch bumps (re-bins + rebuilds)
    std::uint64_t candidates_walked = 0;  ///< row entries the walks read
    std::uint64_t exact_checks = 0;   ///< live positions the walks evaluated
  };

  /// New node universe (full index rebuild / node added).  Drops every
  /// table; range classes are rediscovered on first use.
  void reset(std::size_t n);

  /// Kills every cached row (O(1): bumps the epoch; rows die lazily on
  /// lookup, pools are recycled on the first store of the new epoch).
  /// Called per spatial-index re-bin -- the moment a binned position's
  /// slack guarantee expired.
  void invalidate() noexcept {
    ++epoch_;
    ++stats_.invalidations;
  }

  /// True when `id` has a current-epoch row for range class `range`;
  /// fills `out` with a view of it.
  [[nodiscard]] bool lookup(NodeId id, double range, Row& out) noexcept {
    for (const Table& t : tables_) {
      if (t.range == range) {
        const auto slot = static_cast<std::size_t>(id);
        if (t.stamp[slot] != epoch_) return false;
        out.ids = t.pool.data() + t.begin[slot];
        out.anchors = t.apool.data() + t.begin[slot];
        out.len = t.len[slot];
        ++stats_.hits;
        return true;
      }
    }
    return false;
  }

  /// Records `ids` (ascending, unique) as `id`'s row for range class
  /// `range` and returns a view of the stored copy.  `anchor_of(nid)`
  /// must return the candidate's binned anchor position (the prefilter
  /// contract above); World passes SpatialIndex::anchor.
  template <typename AnchorFn>
  Row store(NodeId id, double range, const std::vector<NodeId>& ids,
            AnchorFn&& anchor_of) {
    ++stats_.rebuilds;
    Table* t = table_for(range);
    const bool spill = t == nullptr;
    if (spill) t = &spill_;
    if (spill || t->pool_epoch != epoch_) {
      // First row of a new epoch: every old row is dead, recycle the
      // pools (capacity is kept, so steady-state rebuilds allocate
      // nothing).  The spill table keeps only the row being stored.
      t->pool.clear();
      t->apool.clear();
      t->pool_epoch = epoch_;
    }
    const auto begin = static_cast<std::uint32_t>(t->pool.size());
    const auto len = static_cast<std::uint32_t>(ids.size());
    t->pool.insert(t->pool.end(), ids.begin(), ids.end());
    for (const NodeId nid : ids) t->apool.push_back(anchor_of(nid));
    if (!spill) {
      const auto slot = static_cast<std::size_t>(id);
      t->begin[slot] = begin;
      t->len[slot] = len;
      t->stamp[slot] = epoch_;
    }
    return Row{t->pool.data() + begin, t->apool.data() + begin, len};
  }

  /// Charges one walk: `candidates` row entries read, `exact` of them
  /// needing a live-position check.  Per walk, not per candidate.
  void count_walk(std::uint32_t candidates, std::uint32_t exact) noexcept {
    stats_.candidates_walked += candidates;
    stats_.exact_checks += exact;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Table {
    double range = 0;
    std::uint64_t pool_epoch = 0;      ///< epoch the pool was last recycled for
    std::vector<std::uint32_t> begin;  ///< per-node row offset into pool
    std::vector<std::uint32_t> len;    ///< per-node row length
    std::vector<std::uint64_t> stamp;  ///< per-node build epoch (0 = never)
    std::vector<NodeId> pool;          ///< shared row storage, append-only
    std::vector<Point> apool;          ///< candidate anchors, parallel to pool
  };

  /// The table of range class `range`, created on first use; null when
  /// kMaxRangeClasses other classes already exist.
  Table* table_for(double range);

  std::vector<Table> tables_;
  Table spill_;  ///< overflow range classes: one row, never looked up
  std::uint64_t epoch_ = 1;  ///< starts above the stamp default of 0
  std::size_t n_ = 0;
  Stats stats_;
};

}  // namespace refer::sim
