// Unit tests for the net module: flooding discovery, path collection,
// announcements, BFS oracle, path forwarding.
#include <gtest/gtest.h>

#include "net/flooding.hpp"

namespace refer::net {
namespace {

using sim::EnergyBucket;
using sim::NodeId;

class NetTest : public ::testing::Test {
 protected:
  NetTest() { energy.resize(64); }

  /// A chain of sensors spaced 80 m apart (range 100 m): only adjacent
  /// nodes hear each other.
  std::vector<NodeId> make_chain(int n) {
    std::vector<NodeId> ids;
    for (int i = 0; i < n; ++i) {
      ids.push_back(
          world.add_static_sensor({80.0 * i, 0}, 100));
    }
    return ids;
  }

  sim::Simulator sim;
  sim::World world{{{0, 0}, {2000, 2000}}, sim};
  sim::EnergyTracker energy;
  sim::Channel channel{sim, world, energy, Rng(1)};
  Flooder flooder{sim, world, channel};
};

TEST_F(NetTest, DiscoverFindsChainPath) {
  const auto ids = make_chain(4);
  std::optional<std::vector<NodeId>> found;
  bool called = false;
  flooder.discover(ids[0], ids[3], 5, EnergyBucket::kMaintenance,
                   [&](auto path) {
                     called = true;
                     found = path;
                   });
  sim.run_all();
  ASSERT_TRUE(called);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, (std::vector<NodeId>{ids[0], ids[1], ids[2], ids[3]}));
}

TEST_F(NetTest, DiscoverRespectsTtl) {
  const auto ids = make_chain(5);
  std::optional<std::vector<NodeId>> found = std::vector<NodeId>{};
  flooder.discover(ids[0], ids[4], 2,  // needs 4 hops, TTL 2
                   EnergyBucket::kMaintenance,
                   [&](auto path) { found = path; });
  sim.run_all();
  EXPECT_FALSE(found.has_value());
}

TEST_F(NetTest, DiscoverTimesOutWhenPartitioned) {
  const auto a = world.add_static_sensor({0, 0}, 100);
  const auto b = world.add_static_sensor({1000, 1000}, 100);
  bool called = false;
  std::optional<std::vector<NodeId>> found = std::vector<NodeId>{};
  flooder.discover(a, b, 8, EnergyBucket::kMaintenance, [&](auto path) {
    called = true;
    found = path;
  });
  sim.run_all();
  EXPECT_TRUE(called);
  EXPECT_FALSE(found.has_value());
}

TEST_F(NetTest, DiscoveryChargesFloodEnergy) {
  make_chain(4);
  flooder.discover(0, 3, 5, EnergyBucket::kMaintenance, [](auto) {});
  sim.run_all();
  // At least: 3 forwarding broadcasts + reply unicasts.
  EXPECT_GT(energy.total(EnergyBucket::kMaintenance), 6.0);
  EXPECT_DOUBLE_EQ(energy.total(EnergyBucket::kData), 0.0);
}

TEST_F(NetTest, CollectPathsFindsMultipleRoutes) {
  // Diamond: s - {a, b} - t, two node-disjoint 2-hop paths.
  const auto s = world.add_static_sensor({0, 0}, 100);
  const auto a = world.add_static_sensor({70, 50}, 100);
  const auto b = world.add_static_sensor({70, -50}, 100);
  const auto t = world.add_static_sensor({140, 0}, 100);
  std::vector<std::vector<NodeId>> paths;
  flooder.collect_paths(s, t, 2, EnergyBucket::kConstruction,
                        [&](auto p) { paths = p; });
  sim.run_all();
  ASSERT_EQ(paths.size(), 2u);
  for (const auto& p : paths) {
    ASSERT_EQ(p.size(), 3u);
    EXPECT_EQ(p.front(), s);
    EXPECT_EQ(p.back(), t);
    EXPECT_TRUE(p[1] == a || p[1] == b);
  }
  EXPECT_NE(paths[0][1], paths[1][1]);
}

TEST_F(NetTest, CollectPathsRespectsTtl) {
  const auto ids = make_chain(5);
  std::vector<std::vector<NodeId>> paths;
  flooder.collect_paths(ids[0], ids[4], 2, EnergyBucket::kConstruction,
                        [&](auto p) { paths = p; });
  sim.run_all();
  EXPECT_TRUE(paths.empty());
  // TTL=2 means up to 2 intermediate forwarders: target 3 hops away IS
  // reachable.
  std::vector<std::vector<NodeId>> paths3;
  flooder.collect_paths(ids[0], ids[3], 2, EnergyBucket::kConstruction,
                        [&](auto p) { paths3 = p; });
  sim.run_all();
  ASSERT_EQ(paths3.size(), 1u);
  EXPECT_EQ(paths3[0].size(), 4u);
}

TEST_F(NetTest, AnnounceReachesAllWithinTtlWithParents) {
  const auto ids = make_chain(6);
  std::unordered_map<NodeId, std::pair<int, NodeId>> seen;
  flooder.announce(ids[0], 3, EnergyBucket::kConstruction,
                   [&](NodeId n, int hops, NodeId parent) {
                     seen[n] = {hops, parent};
                     return true;
                   });
  sim.run_all();
  ASSERT_EQ(seen.size(), 3u);  // nodes 1..3
  EXPECT_EQ(seen[ids[1]], (std::pair{1, ids[0]}));
  EXPECT_EQ(seen[ids[2]], (std::pair{2, ids[1]}));
  EXPECT_EQ(seen[ids[3]], (std::pair{3, ids[2]}));
  EXPECT_FALSE(seen.contains(ids[4]));
}

TEST_F(NetTest, DiscoverRejectsAsymmetricLinks) {
  // An actuator's 250 m first hop must not appear in a discovered route:
  // the reply (and later data) could never travel back over it.  The
  // symmetric route goes through the 80 m chain instead.
  const auto act = world.add_actuator({0, 0}, 250);
  const auto s1 = world.add_static_sensor({80, 0}, 100);
  const auto s2 = world.add_static_sensor({160, 0}, 100);
  const auto target = world.add_static_sensor({240, 0}, 100);
  std::optional<std::vector<NodeId>> found;
  flooder.discover(act, target, 6, EnergyBucket::kMaintenance,
                   [&](auto path) { found = path; });
  sim.run_all();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, (std::vector<NodeId>{act, s1, s2, target}))
      << "route must use hops every receiver can reach back";
}

TEST_F(NetTest, BroadcastRangeOverrideLimitsReceivers) {
  const auto a = world.add_actuator({0, 0}, 250);
  world.add_static_sensor({60, 0}, 100);
  world.add_static_sensor({180, 0}, 100);  // inside 250, outside 100
  int received = 0;
  channel.broadcast(a, 64, EnergyBucket::kConstruction,
                    [&](NodeId) { ++received; }, /*range_override=*/100);
  sim.run_all();
  EXPECT_EQ(received, 1) << "power control must shrink the footprint";
}

// ------------------------------------------------------- flood slot lifecycle

TEST_F(NetTest, DiscoverReleasesItsSlotOnceDrained) {
  const auto ids = make_chain(4);
  const auto far = world.add_static_sensor({1500, 1500}, 100);
  flooder.discover(ids[0], ids[3], 5, EnergyBucket::kMaintenance, [](auto) {});
  flooder.discover(ids[0], far, 5, EnergyBucket::kMaintenance,  // times out
                   [](auto) {});
  EXPECT_EQ(flooder.live_floods(), 2u);
  sim.run_all();
  EXPECT_EQ(flooder.live_floods(), 0u);
  EXPECT_EQ(flooder.floods_started(), 2u);
}

TEST_F(NetTest, CollectPathsReleasesItsSlotOnceDrained) {
  const auto ids = make_chain(4);
  std::vector<std::vector<NodeId>> paths;
  flooder.collect_paths(ids[0], ids[3], 2, EnergyBucket::kConstruction,
                        [&](auto p) { paths = p; });
  EXPECT_EQ(flooder.live_floods(), 1u);
  sim.run_all();
  EXPECT_EQ(flooder.live_floods(), 0u);
  EXPECT_EQ(paths.size(), 1u);
}

TEST_F(NetTest, AnnounceReleasesItsSlotOnceDrained) {
  const auto ids = make_chain(6);
  int accepted = 0;
  flooder.announce(ids[0], 3, EnergyBucket::kConstruction,
                   [&](NodeId, int, NodeId) { return ++accepted > 0; });
  EXPECT_EQ(flooder.live_floods(), 1u) << "relay frames are still on the air";
  sim.run_all();
  EXPECT_EQ(flooder.live_floods(), 0u);
  EXPECT_EQ(accepted, 3);

  // A dead source sends nothing, so the announcement ends at once.
  world.set_alive(ids[5], false);
  flooder.announce(ids[5], 3, EnergyBucket::kConstruction, nullptr);
  EXPECT_EQ(flooder.live_floods(), 0u);
}

TEST_F(NetTest, FloodsAfterADrainReuseTheirSlots) {
  const auto ids = make_chain(5);
  for (int i = 0; i < 4; ++i) {
    flooder.discover(ids[0], ids[4], 6, EnergyBucket::kMaintenance,
                     [](auto) {});
    flooder.announce(ids[0], 2, EnergyBucket::kConstruction, nullptr);
    flooder.collect_paths(ids[0], ids[2], 2, EnergyBucket::kConstruction,
                          [](auto) {});
    sim.run_all();
  }
  EXPECT_EQ(flooder.live_floods(), 0u);
  EXPECT_EQ(flooder.pooled_slots(), 3u);
}

/// Two identical path queries on a crowded cluster, the second started
/// from the first's completion at its deadline, while relay frames of the
/// first are still queued on the medium.  `same` issues both through
/// one Flooder (the second reuses the first's slot), otherwise through
/// two.  Returns the second query's paths.
std::vector<std::vector<NodeId>> back_to_back_queries(bool same,
                                                      std::size_t* slots) {
  sim::Simulator sim;
  sim::World world{{{0, 0}, {2000, 2000}}, sim};
  sim::EnergyTracker energy;
  energy.resize(64);
  sim::Channel channel{sim, world, energy, Rng(5)};
  Flooder first{sim, world, channel};
  Flooder second{sim, world, channel};
  Flooder& next = same ? first : second;
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    world.add_static_sensor({rng.uniform(0, 150), rng.uniform(0, 150)}, 100);
  }
  const NodeId src = 0, target = 39;
  std::vector<std::vector<NodeId>> paths;
  first.collect_paths(
      src, target, 3, EnergyBucket::kConstruction,
      [&](auto) {
        EXPECT_GT(sim.pending(), 0u) << "first query's relays must be queued";
        next.collect_paths(src, target, 3, EnergyBucket::kConstruction,
                           [&](auto p) { paths = p; });
      },
      64, /*deadline_s=*/0.005);
  sim.run_all();
  *slots = first.pooled_slots();
  EXPECT_EQ(first.live_floods() + second.live_floods(), 0u);
  return paths;
}

TEST(FloodSlots, LateCopiesIntoARecycledSlotAreIgnored) {
  std::size_t recycled_slots = 0, separate_slots = 0;
  const auto recycled = back_to_back_queries(true, &recycled_slots);
  const auto separate = back_to_back_queries(false, &separate_slots);
  EXPECT_EQ(recycled_slots, 1u) << "the second query must reuse the slot";
  EXPECT_EQ(separate_slots, 1u);
  ASSERT_FALSE(recycled.empty());
  EXPECT_EQ(recycled, separate)
      << "stale relays of the first query leaked into the second";
}

TEST_F(NetTest, BroadcastReportsFrameEndAfterTheLastReceiver) {
  const auto ids = make_chain(3);
  std::vector<NodeId> got;
  auto record = [&](NodeId r) { got.push_back(r); };
  EXPECT_TRUE(channel.broadcast(ids[1], 64, EnergyBucket::kConstruction,
                                record, 0, /*report_end=*/true));
  sim.run_all();
  EXPECT_EQ(got, (std::vector<NodeId>{ids[0], ids[2], sim::Channel::kFrameEnd}));

  got.clear();
  world.set_alive(ids[1], false);
  EXPECT_FALSE(channel.broadcast(ids[1], 64, EnergyBucket::kConstruction,
                                 record, 0, /*report_end=*/true));
  sim.run_all();
  EXPECT_TRUE(got.empty()) << "a dead sender sends nothing, not even the end";
}

TEST_F(NetTest, BfsPathMatchesChain) {
  const auto ids = make_chain(4);
  const auto path = bfs_path(world, ids[0], ids[3]);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{ids[0], ids[1], ids[2], ids[3]}));
}

TEST_F(NetTest, BfsPathHonoursExclusions) {
  const auto s = world.add_static_sensor({0, 0}, 100);
  const auto a = world.add_static_sensor({70, 50}, 100);
  const auto b = world.add_static_sensor({70, -50}, 100);
  const auto t = world.add_static_sensor({140, 0}, 100);
  std::unordered_set<NodeId> exclude{a};
  const auto path = bfs_path(world, s, t, &exclude);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{s, b, t}));
  exclude.insert(b);
  EXPECT_FALSE(bfs_path(world, s, t, &exclude).has_value());
}

TEST_F(NetTest, BfsPathNoRoute) {
  const auto a = world.add_static_sensor({0, 0}, 100);
  const auto b = world.add_static_sensor({500, 500}, 100);
  EXPECT_FALSE(bfs_path(world, a, b).has_value());
}

TEST_F(NetTest, SendAlongPathDeliversAndCharges) {
  const auto ids = make_chain(4);
  std::size_t hops = 0;
  bool ok = false;
  send_along_path(channel, {ids[0], ids[1], ids[2], ids[3]}, 1000,
                  EnergyBucket::kData, [&](std::size_t h, bool s) {
                    hops = h;
                    ok = s;
                  });
  sim.run_all();
  EXPECT_TRUE(ok);
  EXPECT_EQ(hops, 3u);
  // 3 tx + 3 rx.
  EXPECT_DOUBLE_EQ(energy.total(EnergyBucket::kData), 3 * 2.0 + 3 * 0.75);
}

TEST_F(NetTest, SendAlongPathReportsFailingHop) {
  const auto ids = make_chain(4);
  world.set_alive(ids[2], false);
  std::size_t hops = 99;
  bool ok = true;
  send_along_path(channel, {ids[0], ids[1], ids[2], ids[3]}, 1000,
                  EnergyBucket::kData, [&](std::size_t h, bool s) {
                    hops = h;
                    ok = s;
                  });
  sim.run_all();
  EXPECT_FALSE(ok);
  EXPECT_EQ(hops, 1u);  // failed at hop ids[1] -> ids[2]
}

TEST_F(NetTest, SendAlongTrivialPathSucceedsImmediately) {
  bool ok = false;
  send_along_path(channel, {0}, 100, EnergyBucket::kData,
                  [&](std::size_t, bool s) { ok = s; });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace refer::net
