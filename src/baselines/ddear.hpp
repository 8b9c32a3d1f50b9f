// D-DEAR [8] (paper SII, SIV): distributed energy-aware clustering with a
// mesh of cluster heads.
//
// Construction: every sensor exchanges hello messages with its 2-hop
// neighbourhood and the highest-energy node becomes cluster head; members
// attach to the closest head.  Each head discovers a multi-hop path to
// its closest actuator by flooding.
//
// Data: member -> head (1-2 hops) -> head's cached multi-hop path ->
// actuator.  When a path hop fails, the *head* re-floods to rebuild the
// path and retransmits from itself -- only heads maintain long paths,
// which is why D-DEAR degrades more gracefully than DaTree (paper
// Figs. 4-7) but still pays broadcast repairs.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "baselines/wsan_system.hpp"
#include "common/epoch_marks.hpp"
#include "net/flooding.hpp"
#include "sim/channel.hpp"
#include "sim/energy.hpp"

namespace refer::baselines {

struct DDearConfig {
  int cluster_radius_hops = 2;
  int repair_ttl = 8;
  double repair_deadline_s = 0.5;
  int max_retransmissions = 3;
  std::size_t control_bytes = 48;
};

/// Outcome of D-DEAR's cluster election on the current topology.
struct ClusterElection {
  /// Heads in election order: the k-hop maxima in sensor-id order, then
  /// the sensors that saw no head and became their own, in id order.
  std::vector<NodeId> heads;
  /// Indexed by node id: the sensor's head; -1 for actuators and dead
  /// sensors.
  std::vector<NodeId> head_of;
};

/// The election D-DEAR runs after its hello exchange.  An alive sensor is
/// a head iff no sensor within `radius_hops` forwarding hops has a higher
/// score (battery[id], id); actuators are neither scored nor expanded.
/// Every other alive sensor joins the physically closest head in that
/// ball (first one found in BFS order on equal distance), or heads
/// itself when it sees none -- later sensors can then join it.
/// Reads each alive sensor's 1-hop sensor list once; the head test is
/// O(radius x sum of degrees).  `battery` is indexed by node id.
[[nodiscard]] ClusterElection elect_clusters(sim::World& world,
                                             std::span<const double> battery,
                                             int radius_hops);

class DDear final : public WsanSystem {
 public:
  DDear(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
        net::Flooder& flooder, sim::EnergyTracker& energy,
        DDearConfig config = {});

  void build(std::function<void(bool)> done) override;
  void send_event(NodeId src, std::size_t bytes,
                  std::function<void(const Delivery&)> done) override;
  [[nodiscard]] const char* name() const override { return "D-DEAR"; }

  [[nodiscard]] bool is_head(NodeId sensor) const;
  [[nodiscard]] NodeId head_of(NodeId sensor) const;
  [[nodiscard]] std::size_t head_count() const { return head_paths_.size(); }

  struct Stats {
    std::uint64_t repairs = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t reattachments = 0;
    std::uint64_t drops = 0;
    std::uint64_t delivered = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    NodeId src;
    std::size_t bytes;
    double sent_at;
    int hops = 0;
    int retries_left;
    std::function<void(const Delivery&)> done;
  };
  using PendingPtr = std::shared_ptr<Pending>;

  /// Sensors within `hops` forwarding hops of `node` right now, in BFS
  /// order.  The result lives in scratch reused by the next call.
  const std::vector<NodeId>& khop_neighborhood(NodeId node, int hops);
  void elect_heads_and_paths(std::function<void(bool)> done);
  void discover_head_path(std::size_t head_index,
                          std::vector<NodeId> heads,
                          std::function<void(bool)> done);
  void route_from_member(NodeId src, PendingPtr msg);
  void send_via_head(NodeId head, PendingPtr msg);
  void walk_head_path(NodeId head, std::size_t hop_index, PendingPtr msg);
  void repair_head_path(NodeId head, PendingPtr msg);
  void reattach_member(NodeId member, PendingPtr msg);
  void finish(NodeId actuator, PendingPtr msg);
  void drop(PendingPtr msg);

  sim::Simulator* sim_;
  sim::World* world_;
  sim::Channel* channel_;
  net::Flooder* flooder_;
  sim::EnergyTracker* energy_;
  DDearConfig config_;
  Stats stats_;
  std::unordered_map<NodeId, NodeId> head_of_;            // member -> head
  std::unordered_map<NodeId, std::vector<NodeId>> head_paths_;  // head -> path to actuator
  EpochMarks khop_seen_;
  std::vector<NodeId> khop_ball_;
};

}  // namespace refer::baselines
