#include "net/flooding.hpp"

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>

namespace refer::net {

Flooder::Slot& Flooder::acquire(Kind kind, sim::EnergyBucket bucket,
                                std::size_t bytes) {
  Slot* slot;
  if (free_.empty()) {
    slots_.push_back(std::make_unique<Slot>());
    slot = slots_.back().get();
    slot->owner = this;
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  slot->kind = kind;
  slot->bucket = bucket;
  slot->bytes = bytes;
  slot->accepted.clear(world_->size());
  if (slot->hops.size() < world_->size()) slot->hops.resize(world_->size());
  return *slot;
}

void Flooder::release(Slot& slot) {
  ++slot.generation;  // every event still carrying the old one is stale
  slot.arrived.clear();
  slot.discover_done = nullptr;
  slot.collect_done = nullptr;
  slot.on_node = nullptr;
  free_.push_back(&slot);
}

void Flooder::accept(Slot& slot, NodeId at, NodeId from, int depth) {
  const auto i = static_cast<std::size_t>(at);
  slot.accepted.mark(i);
  if (i >= slot.hops.size()) slot.hops.resize(i + 1);
  slot.hops[i] = {from, depth};
}

std::vector<NodeId> Flooder::path_to(const Slot& slot, NodeId at) {
  std::vector<NodeId> path{at};
  for (NodeId cur = at;
       slot.accepted.marked(static_cast<std::size_t>(cur)) &&
       slot.hops[static_cast<std::size_t>(cur)].parent >= 0;) {
    cur = slot.hops[static_cast<std::size_t>(cur)].parent;
    path.push_back(cur);
  }
  return {path.rbegin(), path.rend()};
}

void Flooder::rebroadcast(Slot& slot, NodeId at) {
  // Slot pointer + generation + node: 16 bytes, stored inside the
  // std::function without a heap allocation.
  Slot* const s = &slot;
  const std::uint32_t generation = slot.generation;
  auto relay = [s, generation, at](NodeId r) {
    s->owner->on_copy(*s, generation, at, r);
  };
  if (slot.kind == Kind::kAnnounce) {
    // No deadline ends an announcement: its slot lives while any relay
    // frame is still on the air.
    if (channel_->broadcast(at, slot.bytes, slot.bucket, relay, 0,
                            /*report_end=*/true)) {
      ++slot.in_flight;
    }
    return;
  }
  channel_->broadcast(at, slot.bytes, slot.bucket, relay, slot.tx_range);
}

void Flooder::on_copy(Slot& slot, std::uint32_t generation, NodeId from,
                      NodeId at) {
  if (at == sim::Channel::kFrameEnd) {  // only announcements ask for it
    if (--slot.in_flight == 0) release(slot);
    return;
  }
  PhaseProfiler::Scope phase(phases_, Phase::kFlooding);
  if (slot.generation != generation) return;  // flood over, slot released
  const int depth = slot.hops[static_cast<std::size_t>(from)].depth;
  switch (slot.kind) {
    case Kind::kDiscover:
      discover_copy(slot, at, from, depth - 1);
      break;
    case Kind::kCollect:
      collect_copy(slot, at, from, depth - 1);
      break;
    case Kind::kAnnounce:
      announce_copy(slot, at, from, depth + 1);
      break;
  }
}

void Flooder::discover(NodeId src, NodeId target, int ttl,
                       sim::EnergyBucket bucket, DiscoverDone done,
                       std::size_t query_bytes, double deadline_s) {
  ++next_query_;
  Slot& slot = acquire(Kind::kDiscover, bucket, query_bytes);
  slot.target = target;
  slot.tx_range = 0;
  slot.discover_done = std::move(done);
  const std::uint32_t generation = slot.generation;
  {
    // Kick off: src "receives" its own query with full TTL.
    PhaseProfiler::Scope phase(phases_, Phase::kFlooding);
    discover_copy(slot, src, -1, ttl);
  }
  // Stale (and ignored) when the reply already finished the flood.
  Slot* const s = &slot;
  sim_->schedule_in(deadline_s, [this, s, generation] {
    if (s->generation == generation) finish_discover(*s, std::nullopt);
  });
}

void Flooder::discover_copy(Slot& slot, NodeId at, NodeId from,
                            int ttl_left) {
  if (slot.accepted.marked(static_cast<std::size_t>(at))) return;
  // Only accept over symmetric links: the discovered route must carry
  // the reply (and later data) back towards the source, so a node that
  // cannot reach the forwarder ignores the query copy (AODV-style
  // blacklisting of unidirectional links).
  if (from >= 0 && !world_->can_reach(at, from)) return;
  accept(slot, at, from, ttl_left);
  if (at == slot.target) {
    // The first copy to reach the target defines the route; the reply
    // unicasts it back along the reverse path, and the requester learns
    // it when the reply arrives.
    slot.arrived.push_back(path_to(slot, at));
    reply_hop(slot, 0);
    return;
  }
  if (ttl_left <= 0) return;
  rebroadcast(slot, at);
}

void Flooder::reply_hop(Slot& slot, std::size_t i) {
  const std::vector<NodeId>& path = slot.arrived.front();
  const std::size_t n = path.size();
  if (i + 1 >= n) {
    finish_discover(slot, std::move(slot.arrived.front()));
    return;
  }
  Slot* const s = &slot;
  const std::uint32_t generation = slot.generation;
  channel_->unicast(path[n - 1 - i], path[n - 2 - i], slot.bytes, slot.bucket,
                    [s, generation, i = static_cast<std::uint32_t>(i)](
                        bool ok) {
                      if (s->generation != generation) return;
                      if (!ok) {
                        s->owner->finish_discover(*s, std::nullopt);
                        return;
                      }
                      s->owner->reply_hop(*s, i + 1);
                    });
}

void Flooder::finish_discover(Slot& slot,
                              std::optional<std::vector<NodeId>> path) {
  DiscoverDone done = std::move(slot.discover_done);
  release(slot);
  done(std::move(path));
}

void Flooder::collect_paths(NodeId src, NodeId target, int ttl,
                            sim::EnergyBucket bucket, CollectDone done,
                            std::size_t query_bytes, double deadline_s,
                            double query_tx_range) {
  ++next_query_;
  Slot& slot = acquire(Kind::kCollect, bucket, query_bytes);
  slot.target = target;
  slot.tx_range = query_tx_range;
  slot.collect_done = std::move(done);
  {
    PhaseProfiler::Scope phase(phases_, Phase::kFlooding);
    collect_copy(slot, src, -1, ttl + 1);  // src itself does not consume TTL
  }
  // The deadline defines the result, so it always ends the flood.
  Slot* const s = &slot;
  sim_->schedule_in(deadline_s, [this, s] {
    CollectDone finished = std::move(s->collect_done);
    std::vector<std::vector<NodeId>> paths = std::move(s->arrived);
    release(*s);
    finished(std::move(paths));
  });
}

void Flooder::collect_copy(Slot& slot, NodeId at, NodeId from,
                           int ttl_left) {
  if (at == slot.target) {
    // Record every arrival: forwarder's first-accept path + target.
    std::vector<NodeId> path =
        from >= 0 ? path_to(slot, from) : std::vector<NodeId>{};
    path.push_back(at);
    slot.arrived.push_back(std::move(path));
    return;
  }
  if (slot.accepted.marked(static_cast<std::size_t>(at))) return;
  accept(slot, at, from, ttl_left);
  if (ttl_left <= 0) return;
  rebroadcast(slot, at);
}

void Flooder::announce(NodeId src, int ttl, sim::EnergyBucket bucket,
                       AnnounceFn on_node, std::size_t bytes) {
  ++next_query_;
  Slot& slot = acquire(Kind::kAnnounce, bucket, bytes);
  slot.ttl = ttl;
  slot.on_node = std::move(on_node);
  {
    PhaseProfiler::Scope phase(phases_, Phase::kFlooding);
    announce_copy(slot, src, -1, 0);
  }
  if (slot.in_flight == 0) release(slot);  // nothing went on the air
}

void Flooder::announce_copy(Slot& slot, NodeId at, NodeId from, int hops) {
  if (slot.accepted.marked(static_cast<std::size_t>(at))) return;
  if (slot.on_node && from >= 0) {
    if (!slot.on_node(at, hops, from)) return;  // rejected
  }
  accept(slot, at, from, hops);
  if (hops >= slot.ttl) return;
  rebroadcast(slot, at);
}

std::optional<std::vector<NodeId>> bfs_path(
    sim::World& world, NodeId src, NodeId dst,
    const std::unordered_set<NodeId>* exclude) {
  if (src == dst) return std::vector<NodeId>{src};
  std::unordered_map<NodeId, NodeId> parent;
  std::deque<NodeId> frontier{src};
  parent[src] = src;
  // One leased neighbour buffer reused across every BFS expansion.
  sim::ScratchPool::Lease lease = world.lease_scratch();
  std::vector<NodeId>& neighbours = *lease;
  while (!frontier.empty()) {
    const NodeId at = frontier.front();
    frontier.pop_front();
    world.reachable_from(at, neighbours);
    for (NodeId next : neighbours) {
      if (parent.contains(next)) continue;
      if (exclude && next != dst && exclude->contains(next)) continue;
      parent[next] = at;
      if (next == dst) {
        std::vector<NodeId> path{dst};
        for (NodeId cur = dst; cur != src;) {
          cur = parent[cur];
          path.push_back(cur);
        }
        return std::vector<NodeId>(path.rbegin(), path.rend());
      }
      frontier.push_back(next);
    }
  }
  return std::nullopt;
}

namespace {

/// One send_along_path transfer.  Each hop's ACK callback shares it, so
/// it is freed with the last callback.
struct PathSend {
  sim::Channel* channel;
  std::vector<NodeId> path;
  std::size_t bytes;
  sim::EnergyBucket bucket;
  std::function<void(std::size_t, bool)> done;
};

void send_hop(const std::shared_ptr<PathSend>& send, std::size_t i) {
  if (i + 1 >= send->path.size()) {
    send->done(i, true);
    return;
  }
  send->channel->unicast(send->path[i], send->path[i + 1], send->bytes,
                         send->bucket, [send, i](bool ok) {
                           if (!ok) {
                             send->done(i, false);
                             return;
                           }
                           send_hop(send, i + 1);
                         });
}

}  // namespace

void send_along_path(sim::Channel& channel, std::vector<NodeId> path,
                     std::size_t bytes, sim::EnergyBucket bucket,
                     std::function<void(std::size_t, bool)> done) {
  if (path.size() < 2) {
    if (done) done(0, true);
    return;
  }
  send_hop(std::make_shared<PathSend>(PathSend{&channel, std::move(path),
                                               bytes, bucket,
                                               std::move(done)}),
           0);
}

}  // namespace refer::net
