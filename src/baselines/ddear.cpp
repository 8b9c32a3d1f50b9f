#include "baselines/ddear.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

namespace refer::baselines {

using sim::EnergyBucket;

namespace {

/// Writes to `out` the nodes within `hops` hops of `node`, excluding
/// `node`, in BFS order: every neighbour of `node`, then each of those
/// nodes' new neighbours in turn, and so on.  `neighbours(at, visit)`
/// calls visit(n) for each neighbour n of `at`.
template <typename Neighbours>
void khop_bfs(NodeId node, int hops, std::size_t n_nodes,
              Neighbours&& neighbours, EpochMarks& seen,
              std::vector<NodeId>& out) {
  out.clear();
  seen.clear(n_nodes);
  seen.mark(static_cast<std::size_t>(node));
  auto visit = [&seen, &out](NodeId n) {
    if (seen.mark(static_cast<std::size_t>(n))) out.push_back(n);
  };
  if (hops < 1) return;
  neighbours(node, visit);
  std::size_t begin = 0;
  for (int h = 1; h < hops; ++h) {
    const std::size_t end = out.size();
    for (std::size_t i = begin; i < end; ++i) neighbours(out[i], visit);
    begin = end;
  }
}

}  // namespace

ClusterElection elect_clusters(sim::World& world,
                               std::span<const double> battery,
                               int radius_hops) {
  const std::size_t n = world.size();
  auto alive_sensor = [&world](std::size_t i) {
    const auto id = static_cast<NodeId>(i);
    return world.kind(id) == sim::NodeKind::kSensor && world.alive(id);
  };
  // Each alive sensor's 1-hop sensor list, queried once, as one flat id
  // array plus per-node offsets (empty lists for everything else).
  std::vector<std::size_t> offset(n + 1, 0);
  std::vector<NodeId> adj;
  for (std::size_t i = 0; i < n; ++i) {
    offset[i] = adj.size();
    if (!alive_sensor(i)) continue;
    world.visit_reachable(static_cast<NodeId>(i), [&](NodeId v) {
      if (!world.is_actuator(v)) adj.push_back(v);
    });
  }
  offset[n] = adj.size();
  auto neighbours = [&](NodeId at, auto&& visit) {
    const auto i = static_cast<std::size_t>(at);
    for (std::size_t k = offset[i]; k < offset[i + 1]; ++k) visit(adj[k]);
  };

  // Scores (battery, id) are distinct, so "nobody within r hops beats s"
  // is "no neighbour u of s has a better best-within-(r-1)-hops", where
  // best_k[u] = max(best_{k-1}[u], best_{k-1}[v] for v in nb[u]).
  using Score = std::pair<double, NodeId>;
  auto score = [&battery](NodeId v) {
    return Score(battery[static_cast<std::size_t>(v)], v);
  };
  std::vector<Score> best(n, Score(-1, -1));
  for (std::size_t i = 0; i < n; ++i) {
    if (alive_sensor(i)) best[i] = score(static_cast<NodeId>(i));
  }
  for (int k = 1; k < radius_hops; ++k) {
    std::vector<Score> wider = best;
    for (std::size_t i = 0; i < n; ++i) {
      neighbours(static_cast<NodeId>(i), [&](NodeId v) {
        wider[i] = std::max(wider[i], best[static_cast<std::size_t>(v)]);
      });
    }
    best = std::move(wider);
  }

  ClusterElection out;
  out.head_of.assign(n, -1);
  std::vector<char> is_head(n, 0);
  const auto sensors = world.all_of(sim::NodeKind::kSensor);
  for (NodeId s : sensors) {
    if (!world.alive(s)) continue;
    bool head = true;
    if (radius_hops >= 1) {
      neighbours(s, [&](NodeId u) {
        if (best[static_cast<std::size_t>(u)] > score(s)) head = false;
      });
    }
    if (head) {
      out.heads.push_back(s);
      is_head[static_cast<std::size_t>(s)] = 1;
    }
  }
  // Members attach to the physically closest head in their ball (or
  // become their own head when none is visible).
  EpochMarks seen;
  std::vector<NodeId> ball;
  for (NodeId s : sensors) {
    if (!world.alive(s)) continue;
    khop_bfs(s, radius_hops, n, neighbours, seen, ball);
    NodeId my_head = -1;
    double best_d = std::numeric_limits<double>::infinity();
    for (NodeId v : ball) {
      if (!is_head[static_cast<std::size_t>(v)]) continue;
      const double d = distance_sq(world.position(s), world.position(v));
      if (d < best_d) {
        best_d = d;
        my_head = v;
      }
    }
    if (is_head[static_cast<std::size_t>(s)]) my_head = s;
    if (my_head < 0) {
      out.heads.push_back(s);  // isolated: self-cluster
      is_head[static_cast<std::size_t>(s)] = 1;
      my_head = s;
    }
    out.head_of[static_cast<std::size_t>(s)] = my_head;
  }
  return out;
}

DDear::DDear(sim::Simulator& sim, sim::World& world, sim::Channel& channel,
             net::Flooder& flooder, sim::EnergyTracker& energy,
             DDearConfig config)
    : sim_(&sim),
      world_(&world),
      channel_(&channel),
      flooder_(&flooder),
      energy_(&energy),
      config_(config) {}

const std::vector<NodeId>& DDear::khop_neighborhood(NodeId node, int hops) {
  khop_bfs(
      node, hops, world_->size(),
      [this](NodeId at, auto&& visit) {
        world_->visit_reachable(at, [&](NodeId n) {
          if (!world_->is_actuator(n)) visit(n);
        });
      },
      khop_seen_, khop_ball_);
  return khop_ball_;
}

void DDear::build(std::function<void(bool)> done) {
  // Hello exchange: every sensor broadcasts twice (its id+energy, then its
  // 1-hop table) so all sensors learn their 2-hop neighbourhood.
  for (NodeId s : world_->all_of(sim::NodeKind::kSensor)) {
    if (!world_->alive(s)) continue;
    channel_->broadcast(s, config_.control_bytes, EnergyBucket::kConstruction,
                        nullptr);
    channel_->broadcast(s, config_.control_bytes, EnergyBucket::kConstruction,
                        nullptr);
  }
  sim_->schedule_in(0.5, [this, done = std::move(done)]() mutable {
    elect_heads_and_paths(std::move(done));
  });
}

void DDear::elect_heads_and_paths(std::function<void(bool)> done) {
  const auto sensors = world_->all_of(sim::NodeKind::kSensor);
  std::vector<double> battery(world_->size(), 0.0);
  for (NodeId s : sensors) {
    if (world_->alive(s)) {
      battery[static_cast<std::size_t>(s)] =
          energy_->battery(static_cast<std::size_t>(s));
    }
  }
  ClusterElection election =
      elect_clusters(*world_, battery, config_.cluster_radius_hops);
  for (NodeId s : sensors) {
    const NodeId head = election.head_of[static_cast<std::size_t>(s)];
    if (head >= 0) head_of_[s] = head;
  }
  discover_head_path(0, std::move(election.heads), std::move(done));
}

void DDear::discover_head_path(std::size_t head_index,
                               std::vector<NodeId> heads,
                               std::function<void(bool)> done) {
  if (head_index >= heads.size()) {
    done(true);
    return;
  }
  const NodeId head = heads[head_index];
  const NodeId actuator = world_->closest_actuator(head);
  if (actuator < 0) {
    done(false);
    return;
  }
  flooder_->discover(
      head, actuator, config_.repair_ttl, EnergyBucket::kConstruction,
      [this, head, head_index, heads = std::move(heads),
       done = std::move(done)](std::optional<std::vector<NodeId>> path) mutable {
        if (path) head_paths_[head] = *path;
        else head_paths_[head] = {};  // repaired lazily on first use
        discover_head_path(head_index + 1, std::move(heads), std::move(done));
      },
      config_.control_bytes, config_.repair_deadline_s);
}

bool DDear::is_head(NodeId sensor) const { return head_paths_.contains(sensor); }

NodeId DDear::head_of(NodeId sensor) const {
  const auto it = head_of_.find(sensor);
  return it == head_of_.end() ? -1 : it->second;
}

void DDear::send_event(NodeId src, std::size_t bytes,
                       std::function<void(const Delivery&)> done) {
  auto msg = std::make_shared<Pending>();
  msg->src = src;
  msg->bytes = bytes;
  msg->sent_at = sim_->now();
  msg->retries_left = config_.max_retransmissions;
  msg->done = std::move(done);
  route_from_member(src, msg);
}

void DDear::route_from_member(NodeId src, PendingPtr msg) {
  if (world_->is_actuator(src)) {
    finish(src, msg);
    return;
  }
  const NodeId head = head_of(src);
  if (head < 0) {
    reattach_member(src, msg);
    return;
  }
  if (head == src) {
    send_via_head(head, msg);
    return;
  }
  // Member -> head: direct, or via one relay within the cluster radius.
  channel_->unicast(src, head, msg->bytes, EnergyBucket::kData,
                    [this, src, head, msg](bool ok) {
                      if (ok) {
                        ++msg->hops;
                        send_via_head(head, msg);
                        return;
                      }
                      // Try a relay towards the head.
                      NodeId relay = -1;
                      double best = std::numeric_limits<double>::infinity();
                      world_->visit_reachable(src, [&](NodeId r) {
                        if (!world_->can_reach(r, head)) return;
                        const double d = distance_sq(world_->position(r),
                                                     world_->position(head));
                        if (d < best) {
                          best = d;
                          relay = r;
                        }
                      });
                      if (relay < 0) {
                        reattach_member(src, msg);
                        return;
                      }
                      channel_->unicast(
                          src, relay, msg->bytes, EnergyBucket::kData,
                          [this, src, relay, head, msg](bool ok1) {
                            if (!ok1) {
                              reattach_member(src, msg);
                              return;
                            }
                            ++msg->hops;
                            channel_->unicast(
                                relay, head, msg->bytes, EnergyBucket::kData,
                                [this, src, head, msg](bool ok2) {
                                  if (!ok2) {
                                    reattach_member(src, msg);
                                    return;
                                  }
                                  ++msg->hops;
                                  send_via_head(head, msg);
                                });
                          });
                    });
}

void DDear::send_via_head(NodeId head, PendingPtr msg) {
  if (world_->is_actuator(head)) {
    finish(head, msg);
    return;
  }
  const auto it = head_paths_.find(head);
  if (it == head_paths_.end() || it->second.size() < 2) {
    repair_head_path(head, msg);
    return;
  }
  walk_head_path(head, 0, msg);
}

void DDear::walk_head_path(NodeId head, std::size_t hop_index,
                           PendingPtr msg) {
  const auto& path = head_paths_[head];
  if (hop_index + 1 >= path.size()) {
    finish(path.back(), msg);
    return;
  }
  channel_->unicast(path[hop_index], path[hop_index + 1], msg->bytes,
                    EnergyBucket::kData,
                    [this, head, hop_index, msg](bool ok) {
                      if (!ok) {
                        repair_head_path(head, msg);
                        return;
                      }
                      ++msg->hops;
                      walk_head_path(head, hop_index + 1, msg);
                    });
}

void DDear::repair_head_path(NodeId head, PendingPtr msg) {
  if (msg->retries_left-- <= 0) {
    drop(msg);
    return;
  }
  ++stats_.repairs;
  const NodeId actuator = world_->closest_actuator(head);
  if (actuator < 0 || !world_->alive(head)) {
    drop(msg);
    return;
  }
  flooder_->discover(
      head, actuator, config_.repair_ttl, EnergyBucket::kMaintenance,
      [this, head, msg](std::optional<std::vector<NodeId>> path) {
        if (!path) {
          drop(msg);
          return;
        }
        head_paths_[head] = *path;
        ++stats_.retransmissions;
        walk_head_path(head, 0, msg);  // retransmit from the head
      },
      config_.control_bytes, config_.repair_deadline_s);
}

void DDear::reattach_member(NodeId member, PendingPtr msg) {
  if (msg->retries_left-- <= 0) {
    drop(msg);
    return;
  }
  ++stats_.reattachments;
  // The member announces itself (one broadcast) and adopts the closest
  // reachable head; without one it becomes a self-head.
  channel_->broadcast(member, config_.control_bytes,
                      EnergyBucket::kMaintenance, nullptr);
  NodeId new_head = -1;
  double best = std::numeric_limits<double>::infinity();
  for (NodeId n : khop_neighborhood(member, config_.cluster_radius_hops)) {
    if (!is_head(n) || !world_->alive(n)) continue;
    const double d = distance_sq(world_->position(member),
                                 world_->position(n));
    if (d < best) {
      best = d;
      new_head = n;
    }
  }
  if (new_head < 0) {
    new_head = member;
    head_paths_.try_emplace(member);  // becomes a head, path found lazily
  }
  head_of_[member] = new_head;
  // Source retransmission after the re-attachment settles; the message
  // keeps its original timestamp and retry budget.
  ++stats_.retransmissions;
  sim_->schedule_in(0.01, [this, member, msg] { route_from_member(member, msg); });
}

void DDear::finish(NodeId actuator, PendingPtr msg) {
  ++stats_.delivered;
  Delivery d;
  d.delivered = true;
  d.delay_s = sim_->now() - msg->sent_at;
  d.physical_hops = msg->hops;
  d.actuator = actuator;
  if (msg->done) msg->done(d);
}

void DDear::drop(PendingPtr msg) {
  ++stats_.drops;
  Delivery d;
  d.delivered = false;
  d.delay_s = sim_->now() - msg->sent_at;
  d.physical_hops = msg->hops;
  if (msg->done) msg->done(d);
}

}  // namespace refer::baselines
