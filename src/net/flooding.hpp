// TTL-bounded flooding: the "topological routing" component [35] used by
// the baseline systems for route discovery/repair, and by REFER's
// embedding protocol for its TTL=2 path queries (paper SIII-B2).
//
// Every rebroadcast is a real Channel broadcast: it costs TX energy at the
// forwarder and RX energy at every neighbour -- this is precisely the
// energy the paper's Figs. 5/9/10 charge the flooding-based systems for.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/epoch_marks.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"

namespace refer::net {

using sim::NodeId;

/// Flood-based discovery service.  Each running flood owns one slot of a
/// Flooder-owned pool (node-indexed accept marks, parents and depths, the
/// arrived paths, the caller's callback); a slot is released as soon as
/// nothing can change its flood's outcome and is reused by the next
/// flood, so a steady flood mix allocates nothing per flood.  Every event
/// a flood schedules carries the slot's generation: a copy that arrives
/// after its slot was released (and perhaps reused) is ignored.
/// docs/ARCHITECTURE.md, "Flood slots", has the lifecycle.
class Flooder {
 public:
  Flooder(sim::Simulator& sim, sim::World& world, sim::Channel& channel)
      : sim_(&sim), world_(&world), channel_(&channel) {}

  // Pending events point into the slots, which point back here.
  Flooder(const Flooder&) = delete;
  Flooder& operator=(const Flooder&) = delete;

  /// Called with the discovered src->target path, or nullopt on timeout.
  using DiscoverDone =
      std::function<void(std::optional<std::vector<NodeId>> path)>;

  /// Floods a route request from `src`; the first copy reaching `target`
  /// over *symmetric* links defines the path (lowest-delay, as in
  /// AODV/directed diffusion; nodes ignore query copies from forwarders
  /// they cannot reach back).  The reply travels back along the reverse
  /// path as unicasts (also charged).  `done` fires when the reply
  /// reaches `src`, or at the deadline.
  void discover(NodeId src, NodeId target, int ttl,
                sim::EnergyBucket bucket, DiscoverDone done,
                std::size_t query_bytes = 64, double deadline_s = 2.0);

  /// Called with every path that reached `target` before the deadline
  /// (each path is src...target), in arrival order.
  using CollectDone = std::function<void(std::vector<std::vector<NodeId>>)>;

  /// Floods a path query and collects *all* arriving paths at the target
  /// within the deadline -- the embedding protocol's TTL=2 query, where
  /// the successor actuator picks among candidate paths (paper SIII-B2).
  /// Forwarders do not suppress duplicates of different provenance paths
  /// arriving first at them are rebroadcast once per forwarder (standard
  /// flood suppression), so distinct node-disjoint paths reach the target
  /// through distinct forwarders.
  /// `query_tx_range` > 0 sends every query broadcast at reduced power
  /// (transmit power control, used by the embedding so actuator-sourced
  /// queries traverse sensor-length hops); 0 = full power.
  void collect_paths(NodeId src, NodeId target, int ttl,
                     sim::EnergyBucket bucket, CollectDone done,
                     std::size_t query_bytes = 64, double deadline_s = 2.0,
                     double query_tx_range = 0);

  /// Pure broadcast storm with TTL, no target.  `on_node(node, hops,
  /// parent)` fires on each receipt of the announcement by a node that
  /// has not yet *accepted* it; returning true accepts (the node
  /// rebroadcasts and ignores further copies), returning false rejects
  /// this copy (e.g. the link back to the forwarder is asymmetric) and
  /// leaves the node eligible for later copies.  Used for DaTree
  /// construction (root beacon, accept = parent reachable) and global
  /// announcements.
  using AnnounceFn = std::function<bool(NodeId node, int hops, NodeId parent)>;
  void announce(NodeId src, int ttl, sim::EnergyBucket bucket,
                AnnounceFn on_node, std::size_t bytes = 64);

  /// Number of floods started (tests/metrics).
  [[nodiscard]] std::uint64_t floods_started() const noexcept {
    return next_query_;
  }

  /// Floods whose slot is still held (0 once the simulator has drained).
  [[nodiscard]] std::size_t live_floods() const noexcept {
    return slots_.size() - free_.size();
  }

  /// Slots ever allocated: the peak number of concurrent floods.
  [[nodiscard]] std::size_t pooled_slots() const noexcept {
    return slots_.size();
  }

  /// Attaches the wall-clock phase profiler: every flood relay decision
  /// (suppression check, path bookkeeping, rebroadcast kickoff) charges
  /// Phase::kFlooding.
  void set_phase_profiler(PhaseProfiler* phases) noexcept {
    phases_ = phases;
  }

 private:
  enum class Kind : std::uint8_t { kDiscover, kCollect, kAnnounce };

  /// One flood's state.  A node accepts a query copy at most once, so the
  /// paths the copies travel form a tree: each acceptance records only
  /// its parent, and a full path is rebuilt on the rare target arrival.
  struct Slot {
    struct Hop {
      NodeId parent;  ///< forwarder of the first accepted copy (-1: source)
      int depth;      ///< TTL left (discover/collect), hops (announce)
    };

    Flooder* owner = nullptr;
    std::uint32_t generation = 0;  ///< bumped on release
    Kind kind = Kind::kDiscover;
    NodeId target = -1;
    int ttl = 0;                   ///< announce: hop limit
    int in_flight = 0;             ///< announce: relay frames on the air
    sim::EnergyBucket bucket{};
    std::size_t bytes = 0;
    double tx_range = 0;
    EpochMarks accepted;
    std::vector<Hop> hops;         ///< valid where `accepted` is marked
    std::vector<std::vector<NodeId>> arrived;
    DiscoverDone discover_done;
    CollectDone collect_done;
    AnnounceFn on_node;
  };

  Slot& acquire(Kind kind, sim::EnergyBucket bucket, std::size_t bytes);
  void release(Slot& slot);
  /// Records `at`'s acceptance of the copy `from` forwarded.
  void accept(Slot& slot, NodeId at, NodeId from, int depth);
  /// The path source ... `at` along first-acceptance parents.
  [[nodiscard]] static std::vector<NodeId> path_to(const Slot& slot,
                                                   NodeId at);
  /// Broadcasts `at`'s relay of the flood's query.
  void rebroadcast(Slot& slot, NodeId at);
  /// Channel delivery of `from`'s relay at `at` (or its frame end).
  void on_copy(Slot& slot, std::uint32_t generation, NodeId from,
               NodeId at);
  void discover_copy(Slot& slot, NodeId at, NodeId from, int ttl_left);
  void collect_copy(Slot& slot, NodeId at, NodeId from, int ttl_left);
  void announce_copy(Slot& slot, NodeId at, NodeId from, int hops);
  /// Unicasts hop `i` of a discover reply (target back to source).
  void reply_hop(Slot& slot, std::size_t i);
  void finish_discover(Slot& slot, std::optional<std::vector<NodeId>> path);

  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  PhaseProfiler* phases_ = nullptr;
  std::uint64_t next_query_ = 0;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> free_;
};

/// BFS over the *current* physical connectivity (directed by sender
/// range): the ground-truth multi-hop path, used by tests, by topology
/// bootstrap oracles, and to model cached routes.  Charges no energy.
[[nodiscard]] std::optional<std::vector<NodeId>> bfs_path(
    sim::World& world, NodeId src, NodeId dst,
    const std::unordered_set<NodeId>* exclude = nullptr);

/// Sends `bytes` hop-by-hop along `path` (front()=current holder) as data
/// unicasts.  `done(delivered_hops, success)` fires when the last hop
/// delivers or a hop fails.
void send_along_path(sim::Channel& channel, std::vector<NodeId> path,
                     std::size_t bytes, sim::EnergyBucket bucket,
                     std::function<void(std::size_t delivered_hops,
                                        bool success)>
                         done);

}  // namespace refer::net
