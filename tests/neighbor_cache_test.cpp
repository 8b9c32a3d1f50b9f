// The neighbor cache's one non-negotiable contract: cached reachable
// queries return *exactly* what the uncached grid scan (and the linear
// scan) returns -- same ids, same order -- on mobile worlds, across row
// reuse, node kills and range overrides.  Plus the epoch/counter
// semantics, the zero-steady-state-allocation pin on the cached scan
// path, and the end-to-end determinism proofs (full scenario runs on the
// default kernel and on the reference scans produce identical
// RunMetrics, saturated fig_sat-style jobs included).
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "harness/experiment.hpp"
#include "reference_kernel.hpp"
#include "sim/neighbor_cache.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// Counting hooks for the zero-allocation assertion.  Only counts; all
// storage still comes from the default heap.
void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace refer {
namespace {

using sim::NodeId;

template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = g_heap_allocs.load();
  body();
  return g_heap_allocs.load() - before;
}

/// Randomized world mirroring the spatial-index property fixture: random
/// area, static actuators, mixed mobile/static sensors, a few dead nodes.
struct RandomWorld {
  RandomWorld(std::uint64_t seed, sim::Simulator& sim) : rng(seed) {
    const double side = rng.uniform(300, 1500);
    world = std::make_unique<sim::World>(Rect{{0, 0}, {side, side}}, sim);
    const int n_act = 2 + static_cast<int>(rng.below(5));
    for (int i = 0; i < n_act; ++i) {
      world->add_actuator({rng.uniform(0, side), rng.uniform(0, side)},
                          rng.uniform(150, 300));
    }
    // Two discrete sensor range classes per world -- deployments ship a
    // handful of radio profiles, not a continuum, and the cache's
    // one-table-per-range-class layout leans on that.  Continuous
    // one-off ranges still appear via range_override in the queries.
    const double range_class[2] = {rng.uniform(60, 140),
                                   rng.uniform(60, 140)};
    const int n_sensors = 30 + static_cast<int>(rng.below(120));
    for (int i = 0; i < n_sensors; ++i) {
      const Point p{rng.uniform(0, side), rng.uniform(0, side)};
      const double range = range_class[rng.below(2)];
      if (rng.chance(0.7)) {
        world->add_sensor(p, range, 0, rng.uniform(0.5, 8), rng.split());
      } else {
        world->add_static_sensor(p, range);
      }
    }
    for (int i = 0; i < 3; ++i) {
      world->set_alive(static_cast<NodeId>(rng.below(world->size())), false);
    }
  }

  Rng rng;
  std::unique_ptr<sim::World> world;
};

TEST(NeighborCacheProperty, CachedMatchesUncachedOnRandomMobileWorlds) {
  std::uint64_t total_hits = 0;
  int samples = 0;
  for (std::uint64_t seed = 1; samples < 120; ++seed) {
    sim::Simulator sim;
    RandomWorld rw(seed * 2654435761u + 23, sim);
    sim::World& world = *rw.world;
    double t = 0;
    for (int step = 0; step < 3; ++step, ++samples) {
      // Mostly small advances, so rows built on one query survive into
      // the next ones (the reuse the contract is really about); the
      // occasional large jump forces re-bins and row rebuilds.
      t += rw.rng.chance(0.3) ? rw.rng.uniform(0, 40) : rw.rng.uniform(0, 1);
      sim.run_until(t);
      if (rw.rng.chance(0.25)) {
        // Liveness churn mid-stream: kills (and revivals) must be
        // reflected by cached rows without any invalidation.
        const auto victim = static_cast<NodeId>(rw.rng.below(world.size()));
        world.set_alive(victim, !world.alive(victim));
      }
      for (int q = 0; q < 8; ++q) {
        // Repeat each node a few times so later queries hit cached rows.
        const auto from = static_cast<NodeId>(
            rw.rng.below(world.size() / 2 + 1));
        const double range_override =
            rw.rng.chance(0.3) ? rw.rng.uniform(30, 400) : 0;

        world.set_neighbor_cache_enabled(true);
        const std::vector<NodeId> cached =
            world.reachable_from(from, range_override);
        // Same (from, range) again within the same epoch: a guaranteed
        // row hit, and it must reproduce the just-built row exactly.
        ASSERT_EQ(cached, world.reachable_from(from, range_override))
            << "seed=" << seed << " t=" << t << " from=" << from
            << " override=" << range_override;

        // The cache toggle leaves rows (and the index) untouched, so
        // hits accumulate across iterations.
        world.set_neighbor_cache_enabled(false);
        const std::vector<NodeId> uncached =
            world.reachable_from(from, range_override);
        world.set_neighbor_cache_enabled(true);

        ASSERT_EQ(cached, uncached)
            << "seed=" << seed << " t=" << t << " from=" << from
            << " override=" << range_override;

        if (rw.rng.chance(0.3)) {
          // The linear cross-check costs more than the others: turning
          // the index back on forces a rebuild, so every cached row is
          // rebuilt afterwards.  Sampling it keeps real row *reuse* in
          // the mix -- the property this test is really about.
          world.set_spatial_index_enabled(false);
          const std::vector<NodeId> linear =
              world.reachable_from(from, range_override);
          world.set_spatial_index_enabled(true);
          ASSERT_EQ(cached, linear)
              << "seed=" << seed << " t=" << t << " from=" << from
              << " override=" << range_override;
        }
      }
    }
    total_hits += world.neighbor_cache_stats().hits;
  }
  // The property is vacuous if every query missed; the repeat-queries
  // above guarantee plenty of row reuse.
  EXPECT_GT(total_hits, 100u);
}

TEST(NeighborCacheProperty, KillsNeedNoInvalidationToStayExact) {
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {600, 600}}, sim);
  Rng rng(41);
  world.add_actuator({300, 300}, 250);
  for (int i = 0; i < 80; ++i) {
    world.add_sensor({rng.uniform(0, 600), rng.uniform(0, 600)}, 100, 0, 3,
                     rng.split());
  }
  sim.run_until(2);
  const std::vector<NodeId> before = world.reachable_from(1);
  ASSERT_FALSE(before.empty());
  const NodeId victim = before.front();
  const std::uint64_t inv_before =
      world.neighbor_cache_stats().invalidations;

  // Killing a neighbor must drop it from the *cached* row immediately --
  // dead nodes stay binned and are filtered by the exact pass, so no
  // epoch bump is needed or expected.
  world.set_alive(victim, false);
  const std::vector<NodeId> after = world.reachable_from(1);
  EXPECT_EQ(world.neighbor_cache_stats().invalidations, inv_before);
  EXPECT_EQ(after.size(), before.size() - 1);
  for (const NodeId id : after) EXPECT_NE(id, victim);

  world.set_alive(victim, true);
  EXPECT_EQ(world.reachable_from(1), before);
}

TEST(NeighborCacheCounters, HitsRebuildsAndInvalidationsTrackEpochs) {
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {500, 500}}, sim);
  // Static world: after the initial build, nothing ever re-bins.
  for (int i = 0; i < 40; ++i) {
    world.add_static_sensor({12.5 * i, 250.0}, 120);
  }
  (void)world.reachable_from(0);  // forces the index build + first row
  const auto& stats = world.neighbor_cache_stats();
  EXPECT_EQ(stats.invalidations, 1u);  // the build's own epoch bump
  EXPECT_EQ(stats.rebuilds, 1u);
  EXPECT_EQ(stats.hits, 0u);

  (void)world.reachable_from(0);  // same node, same range class: a hit
  (void)world.reachable_from(0);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.rebuilds, 1u);

  (void)world.reachable_from(7);  // new node: its row is built once
  (void)world.reachable_from(7);
  EXPECT_EQ(stats.rebuilds, 2u);
  EXPECT_EQ(stats.hits, 3u);

  // A distinct range class gets its own row even for a seen node.
  (void)world.reachable_from(0, /*range_override=*/200);
  EXPECT_EQ(stats.rebuilds, 3u);
  EXPECT_EQ(stats.invalidations, 1u);  // still no re-bins

  // Adding a node dirties the index: full rebuild, fresh epoch, every
  // row is rebuilt on next use and the new node shows up.
  const NodeId late = world.add_static_sensor({0.0, 255.0}, 120);
  const std::vector<NodeId> row0 = world.reachable_from(0);
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.rebuilds, 4u);
  EXPECT_NE(std::find(row0.begin(), row0.end(), late), row0.end());
}

TEST(NeighborCacheCounters, MobilityRebinsInvalidate) {
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {400, 400}}, sim);
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    world.add_sensor({rng.uniform(0, 400), rng.uniform(0, 400)}, 100, 1, 3,
                     rng.split());
  }
  (void)world.reachable_from(0);
  (void)world.reachable_from(0);  // two hits: this row earns its keep
  (void)world.reachable_from(0);
  const std::uint64_t inv0 = world.neighbor_cache_stats().invalidations;
  // Far past every slack deadline (slack/speed <= 5 m / 1 mps): the next
  // query's revalidate re-bins movers and must expire cached rows.  The
  // row collected kRefillHitThreshold hits before the re-bin, so the
  // staleness heuristic rebuilds it rather than skipping the fill.
  sim.run_until(30);
  (void)world.reachable_from(0);
  EXPECT_GT(world.neighbor_cache_stats().invalidations, inv0);
  EXPECT_GE(world.neighbor_cache_stats().rebuilds, 2u);
  EXPECT_EQ(world.neighbor_cache_stats().skipped_fills, 0u);
}

TEST(NeighborCacheCounters, ColdRowsSkipFillsUntilReuseReturns) {
  // Cache-level pin on the staleness heuristic: a row whose previous
  // build collected fewer than kRefillHitThreshold hits has its fills
  // skipped -- at most two per epoch; a third miss in one epoch, or a
  // build that reaches the threshold, resumes eager filling.
  sim::NeighborCache cache;
  cache.reset(4);
  const std::vector<NodeId> ids = {1, 2, 3};
  const auto anchor_of = [](NodeId id) {
    return Point{static_cast<double>(id), 0.0};
  };
  sim::NeighborCache::Row view;

  EXPECT_TRUE(cache.should_fill(0, 100.0));  // no history: build
  (void)cache.store(0, 100.0, ids, anchor_of);
  ASSERT_TRUE(cache.lookup(0, 100.0, view));  // one hit: below threshold
  cache.invalidate();

  // The broadcast shape -- one fill, one hit, epoch over -- never pays
  // the build back, so the next epoch's misses are served uncached...
  EXPECT_FALSE(cache.should_fill(0, 100.0));
  EXPECT_FALSE(cache.should_fill(0, 100.0));
  EXPECT_EQ(cache.stats().skipped_fills, 2u);
  // ...until a third miss in the same epoch proves real reuse.
  EXPECT_TRUE(cache.should_fill(0, 100.0));
  (void)cache.store(0, 100.0, ids, anchor_of);
  ASSERT_TRUE(cache.lookup(0, 100.0, view));
  ASSERT_TRUE(cache.lookup(0, 100.0, view));  // threshold hits: amortised
  cache.invalidate();
  EXPECT_TRUE(cache.should_fill(0, 100.0));  // hot rows refill eagerly
  EXPECT_TRUE(cache.should_fill(1, 100.0));  // never-built slot: build
  EXPECT_EQ(cache.stats().skipped_fills, 2u);
}

TEST(NeighborCacheProperty, SkippedFillsStayExact) {
  // The broadcast shape that motivated the heuristic: every node queries
  // once per epoch, so no row is ever reused and -- after the first
  // epoch -- every fill is skipped.  Skipped queries run the plain grid
  // scan and must stay bit-identical to the cache-off path.
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {600, 600}}, sim);
  Rng rng(23);
  for (int i = 0; i < 60; ++i) {
    world.add_sensor({rng.uniform(0, 600), rng.uniform(0, 600)}, 120, 1, 3,
                     rng.split());
  }
  double t = 0;
  for (int epoch = 0; epoch < 4; ++epoch) {
    sim.run_until(t += 30);  // past every slack deadline: forces a re-bin
    for (NodeId from = 0; static_cast<std::size_t>(from) < world.size();
         ++from) {
      const std::vector<NodeId> cached = world.reachable_from(from);
      world.set_neighbor_cache_enabled(false);
      const std::vector<NodeId> uncached = world.reachable_from(from);
      world.set_neighbor_cache_enabled(true);
      ASSERT_EQ(cached, uncached) << "epoch=" << epoch << " from=" << from;
    }
  }
  EXPECT_GT(world.neighbor_cache_stats().skipped_fills, 0u);
}

TEST(NeighborCacheSteadyState, HitPathDoesNotAllocate) {
  // End-to-end pin on the cached scan path through World: once rows are
  // warm, every repeat query within an epoch -- the shape the CSMA
  // medium scan produces thousands of times per re-bin -- must be a pure
  // array walk.  Time is held still during the measurement: advancing it
  // belongs to the *grid's* re-bin machinery (cell vectors can hit new
  // high-water marks as nodes cluster), which is outside this contract.
  sim::Simulator sim;
  sim::World world(Rect{{0, 0}, {500, 500}}, sim);
  Rng rng(19);
  world.add_actuator({250, 250}, 250);
  for (int i = 0; i < 120; ++i) {
    world.add_sensor({rng.uniform(0, 500), rng.uniform(0, 500)}, 100, 0.5, 3,
                     rng.split());
  }
  std::vector<NodeId> out;
  const auto n = static_cast<NodeId>(world.size());
  double t = 0;
  // Warm across epochs so scratch buffers, the sort bitmap, row pools
  // and `out` reach their high-water capacities.
  for (int step = 0; step < 100; ++step) {
    sim.run_until(t += 0.5);
    for (NodeId from = 0; from < n; ++from) {
      world.reachable_from(from, out);
      world.reachable_from(from, out, /*range_override=*/180);
    }
  }
  const std::uint64_t hits_before = world.neighbor_cache_stats().hits;

  const std::uint64_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 50; ++rep) {
      for (NodeId from = 0; from < n; ++from) {
        world.reachable_from(from, out);
        world.reachable_from(from, out, /*range_override=*/180);
      }
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "cached medium scans must not touch the heap at steady state";
  // Each (from, range) pair may spend its first measurement queries on a
  // miss -- worst case two skipped fills plus the fill itself (the
  // staleness heuristic's cold-row path) -- before settling into hits.
  EXPECT_GE(world.neighbor_cache_stats().hits,
            hits_before + 50u * 2u * static_cast<std::uint64_t>(n) - 6u * n);
}

TEST(NeighborCacheSteadyState, RowRebuildsRecyclePoolsWithoutAllocating) {
  // Cache-level pin on the miss path: after an invalidation, re-storing
  // a full epoch's worth of rows must reuse the pool and per-node
  // arrays' capacity -- the allocation cost of a rebuild is paid once,
  // at warmup, never per epoch.
  constexpr std::size_t kNodes = 200;
  sim::NeighborCache cache;
  cache.reset(kNodes);
  std::vector<NodeId> row;
  row.reserve(64);
  const auto fill_row = [&](NodeId id) {
    row.clear();
    for (NodeId j = 0; j < 48; ++j) {
      row.push_back((id + j) % static_cast<NodeId>(kNodes));
    }
  };
  const auto anchor_of = [](NodeId id) {
    return Point{static_cast<double>(id), 0.0};
  };
  // Warmup epoch: tables created, pools and offset arrays sized.
  for (NodeId id = 0; id < static_cast<NodeId>(kNodes); ++id) {
    fill_row(id);
    (void)cache.store(id, 100.0, row, anchor_of);
    (void)cache.store(id, 250.0, row, anchor_of);
  }

  const std::uint64_t allocs = allocations_during([&] {
    sim::NeighborCache::Row view;
    for (int epoch = 0; epoch < 20; ++epoch) {
      cache.invalidate();
      for (NodeId id = 0; id < static_cast<NodeId>(kNodes); ++id) {
        ASSERT_FALSE(cache.lookup(id, 100.0, view));  // epoch killed it
        fill_row(id);
        (void)cache.store(id, 100.0, row, anchor_of);
        (void)cache.store(id, 250.0, row, anchor_of);
        ASSERT_TRUE(cache.lookup(id, 100.0, view));
        ASSERT_EQ(view.len, 48u);
      }
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "epoch turnover must recycle pools, not reallocate them";
}

TEST(NeighborCacheDeterminism, Fig04ScenarioIdenticalWithCacheOnAndOff) {
  harness::Scenario sc;
  sc.n_sensors = 120;
  sc.warmup_s = 5;
  sc.measure_s = 25;
  sc.faulty_nodes = 5;  // liveness churn on top of mobility
  sc.seed = 9;

  for (const harness::SystemKind kind :
       {harness::SystemKind::kRefer, harness::SystemKind::kKautzOverlay}) {
    (void)kernel_test::expect_reference_kernels_agree(
        kind, sc, {kernel_test::ReferenceKernel::kUncachedGrid});
  }
}

TEST(NeighborCacheDeterminism, HoldsUnderTheRegularRoutingPolicy) {
  // The regular-routing walks route different packets over different
  // arcs than greedy, changing which neighbourhoods get queried -- the
  // cache (and its staleness heuristic) must stay invisible there too.
  harness::Scenario sc;
  sc.n_sensors = 110;
  sc.warmup_s = 5;
  sc.measure_s = 20;
  sc.faulty_nodes = 4;
  sc.seed = 29;
  sc.routing_policy = harness::RoutingPolicy::kRegular;
  (void)kernel_test::expect_reference_kernels_agree(
      harness::SystemKind::kRefer, sc,
      {kernel_test::ReferenceKernel::kUncachedGrid});
}

TEST(KernelEquivalence, SaturatedJobsMatchTheReferenceScans) {
  // The fig_sat regime: below and past the saturation knee every
  // transmission's CSMA medium scan runs against a busy neighbourhood,
  // the load the neighbor cache exists for.  All four systems, plus
  // REFER's regular policy, must come out identical on the cached grid,
  // the uncached grid and the linear scan -- and the cache must engage.
  struct Job {
    harness::SystemKind kind;
    harness::RoutingPolicy policy;
  };
  const Job jobs[] = {
      {harness::SystemKind::kRefer, harness::RoutingPolicy::kGreedy},
      {harness::SystemKind::kDaTree, harness::RoutingPolicy::kGreedy},
      {harness::SystemKind::kDDear, harness::RoutingPolicy::kGreedy},
      {harness::SystemKind::kKautzOverlay, harness::RoutingPolicy::kGreedy},
      {harness::SystemKind::kRefer, harness::RoutingPolicy::kRegular}};
  for (const double pps : {10.0, 40.0}) {
    for (const Job& job : jobs) {
      harness::Scenario sc;  // fig_sat's deployment, a shorter window
      sc.warmup_s = 5;
      sc.measure_s = 15;
      sc.seed = 5;
      sc.packets_per_second = pps;
      sc.routing_policy = job.policy;
      SCOPED_TRACE(std::string(harness::to_string(job.kind)) + " " +
                   harness::to_string(job.policy) + " @" +
                   std::to_string(pps) + " pps");
      const harness::RunMetrics fast =
          kernel_test::expect_reference_kernels_agree(
              job.kind, sc,
              {kernel_test::ReferenceKernel::kUncachedGrid,
               kernel_test::ReferenceKernel::kLinearScan});
      EXPECT_GT(fast.packets_delivered, 0u);
      const auto hits = std::find_if(
          fast.observability.begin(), fast.observability.end(),
          [](const StatsRegistry::Entry& e) {
            return e.name == "world.neighbor_cache.hits";
          });
      ASSERT_NE(hits, fast.observability.end());
      EXPECT_GT(hits->count, 0u) << "the neighbor cache never hit";
    }
  }
}

}  // namespace
}  // namespace refer
