#include "refer/routing.hpp"

#include <algorithm>
#include <limits>
#include <memory>

namespace refer::core {

using sim::EnergyBucket;

ReferRouter::ReferRouter(sim::Simulator& sim, sim::World& world,
                         sim::Channel& channel, Topology& topology,
                         RouterConfig config, Rng rng)
    : sim_(&sim),
      world_(&world),
      channel_(&channel),
      topology_(&topology),
      config_(config),
      rng_(rng) {}

void ReferRouter::send_to_actuator(NodeId src, std::size_t bytes,
                                   DeliveryFn done) {
  start(src, FullId{}, /*stop_at_any_actuator=*/true, bytes, std::move(done));
}

void ReferRouter::send_to(NodeId src, FullId dst, std::size_t bytes,
                          DeliveryFn done) {
  start(src, dst, /*stop_at_any_actuator=*/false, bytes, std::move(done));
}

void ReferRouter::emit_trace_header() {
  if (!tracing()) return;
  sim::TraceRecord rec;
  rec.t = sim_->now();
  rec.event = sim::TraceEvent::kTraceHeader;
  rec.degree = topology_->degree();
  // Only the non-default policy is announced, keeping greedy traces
  // byte-identical to pre-policy runs; trace_report treats an absent
  // key as greedy.
  if (config_.policy == RoutingPolicy::kRegular) rec.policy = "regular";
  tracer_->emit(rec);
}

sim::TraceRecord ReferRouter::trace_base(sim::TraceEvent event,
                                         const Packet& pkt,
                                         NodeId from) const {
  sim::TraceRecord rec;
  rec.t = sim_->now();
  rec.event = event;
  rec.from = from;
  rec.bytes = pkt.bytes;
  rec.packet = pkt.id;
  rec.hop_index = pkt.kautz_hops;
  return rec;
}

void ReferRouter::start(NodeId src, FullId dst, bool stop_at_any_actuator,
                        std::size_t bytes, DeliveryFn done) {
  ++stats_.packets_sent;
  auto pkt = std::make_shared<Packet>();
  pkt->dst = dst;
  pkt->stop_at_any_actuator = stop_at_any_actuator;
  pkt->bytes = bytes;
  pkt->sent_at = sim_->now();
  pkt->hops_left = config_.hop_budget_factor * topology_->diameter() + 6;
  pkt->id = next_packet_id_++;
  pkt->done = std::move(done);
  if (tracing()) {
    tracer_->emit(trace_base(sim::TraceEvent::kPacketSent, *pkt, src));
  }

  if (world_->is_actuator(src)) {
    if (stop_at_any_actuator) {
      deliver(src, pkt);
    } else {
      inter_step(src, pkt);
    }
    return;
  }
  const auto binding = topology_->sensor_binding(src);
  if (binding) {
    intra_step(binding->cid, binding->kid, src, pkt);
    return;
  }
  // A non-Kautz (wait/sleep) sensor walks its reading greedily towards
  // the nearest actuator until it meets an overlay member (SIII-B4:
  // sleeping sensors report through nearby awake nodes).
  enter_overlay(src, 4, pkt);
}

void ReferRouter::enter_overlay(NodeId at, int budget, PacketPtr pkt) {
  if (budget <= 0) {
    drop(pkt, sim::DropReason::kOverlayEntryFailed);
    return;
  }
  // Prefer an overlay member in range; otherwise the neighbour that makes
  // the most progress towards the closest actuator.
  NodeId member = -1, closer = -1;
  double best_member = std::numeric_limits<double>::infinity();
  const NodeId actuator = world_->closest_actuator(at);
  if (actuator < 0) {
    drop(pkt, sim::DropReason::kNoActuator);
    return;
  }
  const Point goal = world_->position(actuator);
  const Point here = world_->position(at);
  double best_progress = distance_sq(here, goal);
  world_->visit_reachable(at, [&](NodeId n) {
    const Role r = topology_->role(n);
    const Point p = world_->position(n);
    if (r == Role::kActive || r == Role::kActuator) {
      const double d_member = distance_sq(here, p);
      if (d_member < best_member) {
        best_member = d_member;
        member = n;
      }
    }
    const double d_goal = distance_sq(p, goal);
    if (d_goal < best_progress) {
      best_progress = d_goal;
      closer = n;
    }
  });
  const NodeId next = member >= 0 ? member : closer;
  if (next < 0) {
    drop(pkt, sim::DropReason::kOverlayEntryFailed);
    return;
  }
  channel_->unicast(at, next, pkt->bytes, EnergyBucket::kData,
                    [this, at, next, budget, pkt](bool ok) {
                      if (!ok) {
                        drop(pkt, sim::DropReason::kLinkFailed);
                        return;
                      }
                      ++pkt->physical_hops;
                      if (tracing()) {
                        sim::TraceRecord rec = trace_base(
                            sim::TraceEvent::kHopForward, *pkt, at);
                        rec.to = next;
                        tracer_->emit(rec);
                      }
                      if (world_->is_actuator(next)) {
                        if (pkt->stop_at_any_actuator) {
                          deliver(next, pkt);
                        } else {
                          inter_step(next, pkt);
                        }
                        return;
                      }
                      if (const auto b = topology_->sensor_binding(next)) {
                        intra_step(b->cid, b->kid, next, pkt);
                        return;
                      }
                      enter_overlay(next, budget - 1, pkt);
                    });
}

void ReferRouter::intra_step(Cid cid, Label label, NodeId node,
                             PacketPtr pkt) {
  PhaseProfiler::Scope phase(phases_, Phase::kRoutingDecide);
  if (pkt->stop_at_any_actuator && world_->is_actuator(node)) {
    deliver(node, pkt);
    return;
  }
  // Destination label inside this cell: the final KID when this is the
  // destination cell, otherwise the nearest corner actuator (overlay
  // ascent).
  Label target;
  bool target_is_corner = false;
  if (!pkt->stop_at_any_actuator && cid == pkt->dst.cid) {
    target = pkt->dst.kid;
  } else {
    const auto& cell = topology_->cell(cid);
    auto corners = cell.corner_labels();
    if (corners.empty()) {
      const auto k23 = actuator_labels();
      corners.assign(k23.begin(), k23.end());
    }
    int best_dist = std::numeric_limits<int>::max();
    bool found = false;
    for (const Label& c : corners) {
      if (std::find(pkt->excluded_corners.begin(),
                    pkt->excluded_corners.end(),
                    c) != pkt->excluded_corners.end()) {
        continue;
      }
      const int d = kautz::kautz_distance(label, c);
      if (d < best_dist) {
        best_dist = d;
        target = c;
        found = true;
      }
    }
    if (!found) {
      drop(pkt, sim::DropReason::kNoRoute);
      return;
    }
    target_is_corner = true;
  }
  if (label == target) {
    if (world_->is_actuator(node) &&
        (pkt->stop_at_any_actuator || cid != pkt->dst.cid)) {
      if (pkt->stop_at_any_actuator) {
        deliver(node, pkt);
      } else {
        inter_step(node, pkt);
      }
      return;
    }
    deliver(node, pkt);
    return;
  }
  if (pkt->hops_left-- <= 0) {
    drop(pkt, sim::DropReason::kTtlExpired);
    return;
  }

  std::vector<kautz::Route> routes;
  if (pkt->forced_next) {
    // Proposition 3.7 directive from the previous (conflict-class) hop:
    // this node must forward to the dictated neighbour first; the normal
    // alternatives remain as fail-over.
    const Label forced = *pkt->forced_next;
    pkt->forced_next.reset();
    kautz::Route r;
    r.successor = forced;
    r.path_class = kautz::PathClass::kOther;
    r.nominal_length = 0;  // already accounted by the conflict route
    routes.push_back(r);
    route_cache_.lookup(topology_->degree(), label, target, cache_scratch_);
    for (const auto& alt : cache_scratch_) {
      if (alt.successor != forced) routes.push_back(alt);
    }
  } else if (config_.policy == RoutingPolicy::kRegular) {
    // Regular all-to-all routing (kautz/regular.hpp): continue the
    // packet's concatenation-walk program when this node is exactly
    // where the walk expected to stand; otherwise -- first hop,
    // fail-over detour landed elsewhere, corner re-target -- derive a
    // fresh walk from this label (a pure function of the endpoints, no
    // signalling).  The Theorem 3.8 routes stay behind it as fail-over.
    if (!pkt->regular_active || pkt->regular_target != target ||
        pkt->regular_expected != label ||
        pkt->regular_pos >= pkt->regular_walk.length) {
      pkt->regular_walk =
          kautz::regular_route(topology_->degree(), label, target);
      pkt->regular_pos = 0;
      pkt->regular_target = target;
      pkt->regular_active = true;
      ++stats_.regular_walks;
    }
    const Label reg_succ = label.shift_append(
        pkt->regular_walk.digits[static_cast<std::size_t>(pkt->regular_pos)]);
    ++pkt->regular_pos;
    pkt->regular_expected = reg_succ;
    kautz::Route r;
    r.successor = reg_succ;
    r.path_class = kautz::PathClass::kOther;
    r.nominal_length = 0;  // programmed walk hop; the Theorem 3.8
                           // alternates below keep their real nominals
    routes.push_back(r);
    route_cache_.lookup(topology_->degree(), label, target, cache_scratch_);
    for (const auto& alt : cache_scratch_) {
      if (alt.successor != reg_succ) routes.push_back(alt);
    }
  } else {
    route_cache_.lookup(topology_->degree(), label, target, routes);
  }
  // Equal-length alternatives are tried in random order (SIII-C2: "if a
  // number of paths with the same path length exist, U randomly chooses a
  // successor among these paths").
  for (std::size_t lo = 0; lo < routes.size();) {
    std::size_t hi = lo + 1;
    while (hi < routes.size() &&
           routes[hi].nominal_length == routes[lo].nominal_length) {
      ++hi;
    }
    for (std::size_t i = hi - 1; i > lo; --i) {
      std::swap(routes[i],
                routes[lo + rng_.below(i - lo + 1)]);
    }
    lo = hi;
  }
  if (target_is_corner) {
    pkt->ascent_target = target;
  } else {
    pkt->ascent_target.reset();
  }
  pkt->current_target = target;
  try_routes(cid, label, node, std::move(routes), 0, std::move(pkt));
}

void ReferRouter::try_routes(Cid cid, Label label, NodeId node,
                             std::vector<kautz::Route> routes,
                             std::size_t next_choice, PacketPtr pkt) {
  PhaseProfiler::Scope phase(phases_, Phase::kRoutingDecide);
  if (next_choice >= routes.size()) {
    // All d successors towards the current target failed.  When the
    // target was a corner actuator of the overlay ascent, exclude it and
    // re-target the next-nearest corner (another exit from the cell).
    if (pkt->ascent_target) {
      pkt->excluded_corners.push_back(*pkt->ascent_target);
      pkt->ascent_target.reset();
      intra_step(cid, label, node, std::move(pkt));
      return;
    }
    drop(pkt, sim::DropReason::kAllSuccessorsFailed);
    return;
  }
  if (next_choice > 0) {
    // Theorem 3.8 fail-over: the previous successor's MAC ACK was
    // missing, so this relay switches *locally* to the next disjoint
    // alternative -- the per-event observable behind Figs. 6-7.
    ++stats_.failovers;
    ++pkt->failovers;
    if (tracing()) {
      sim::TraceRecord rec =
          trace_base(sim::TraceEvent::kFailover, *pkt, node);
      rec.at_label = label.to_string();
      rec.dst_label = pkt->current_target.to_string();
      rec.alt_index = static_cast<int>(next_choice);
      if (config_.failover == FailoverMode::kTheorem38) {
        rec.next_label = routes[next_choice].successor.to_string();
        rec.nominal_len = routes[next_choice].nominal_length;
        // Planted bug 1: off-by-one nominal length in the trace.  The
        // failover audit re-derives the Theorem 3.8 routes and must flag
        // every record (see src/verify and RouterConfig::planted_bug).
        if (config_.planted_bug == 1) ++rec.nominal_len;
      }
      tracer_->emit(rec);
    }
    if (config_.failover == FailoverMode::kRouteGeneration) {
      // BAKE/DFTR-style: instead of deriving the alternative from IDs,
      // the relay floods a route request towards the destination holder
      // and retransmits along whatever comes back.
      const Label target = pkt->current_target;
      route_generation_failover(cid, node, target, std::move(pkt));
      return;
    }
  }
  const kautz::Route& route = routes[next_choice];
  const auto& cell = topology_->cell(cid);
  const auto succ_node = cell.node_of(route.successor);
  if (!succ_node || *succ_node == node) {
    // Label currently unbound (mid-replacement) -- treat as failed hop.
    try_routes(cid, label, node, std::move(routes), next_choice + 1,
               std::move(pkt));
    return;
  }
  const Label succ_label = route.successor;
  const auto forced = route.forced_second_hop;
  transmit_arc(node, *succ_node, pkt,
               [this, cid, label, node, routes = std::move(routes),
                next_choice, pkt, succ_label, succ_node = *succ_node,
                forced](bool ok) mutable {
                 if (!ok) {
                   try_routes(cid, label, node, std::move(routes),
                              next_choice + 1, std::move(pkt));
                   return;
                 }
                 ++pkt->kautz_hops;
                 record_arc(label, succ_label);
                 if (tracing()) {
                   sim::TraceRecord rec = trace_base(
                       sim::TraceEvent::kHopForward, *pkt, node);
                   rec.to = succ_node;
                   rec.at_label = label.to_string();
                   rec.dst_label = pkt->current_target.to_string();
                   rec.next_label = succ_label.to_string();
                   tracer_->emit(rec);
                 }
                 if (forced) pkt->forced_next = forced;
                 intra_step(cid, succ_label, succ_node, std::move(pkt));
               });
}

void ReferRouter::inter_step(NodeId actuator, PacketPtr pkt) {
  PhaseProfiler::Scope phase(phases_, Phase::kRoutingDecide);
  const auto& cells = topology_->actuator_cells(actuator);
  if (cells.empty()) {
    drop(pkt, sim::DropReason::kNoRoute);
    return;
  }
  // Already a corner of the destination cell? descend.
  for (Cid cid : cells) {
    if (cid == pkt->dst.cid) {
      const auto label = topology_->cell(cid).label_of(actuator);
      if (!label) {
        drop(pkt, sim::DropReason::kNoRoute);
        return;
      }
      intra_step(cid, *label, actuator, pkt);
      return;
    }
  }
  if (pkt->hops_left-- <= 0) {
    drop(pkt, sim::DropReason::kTtlExpired);
    return;
  }
  if (pkt->dst.cid < 0 ||
      static_cast<std::size_t>(pkt->dst.cid) >= topology_->cell_count()) {
    drop(pkt, sim::DropReason::kNoRoute);
    return;
  }
  const Point target = Topology::can_point(
      topology_->cell(pkt->dst.cid).center(), world_->area());
  // Route from the actuator's best cell.
  Cid cur = cells.front();
  double best = std::numeric_limits<double>::infinity();
  for (Cid cid : cells) {
    const double d = topology_->can().distance_to(cid, target);
    if (d < best) {
      best = d;
      cur = cid;
    }
  }
  const auto next = topology_->can().next_hop(cur, target);
  if (!next) {
    drop(pkt, sim::DropReason::kNoRoute);
    return;
  }
  ++stats_.can_hops;
  // Physical transfer to a corner actuator of the next cell (skip if this
  // actuator is itself a corner of it -- handled above only for dst cell).
  const auto corners = topology_->cell(*next).corner_actuators();
  std::vector<NodeId> candidates;
  for (const auto& c : corners) {
    if (c && *c != actuator) candidates.push_back(*c);
  }
  for (const auto& c : corners) {
    if (c && *c == actuator) {
      // Shared actuator: the packet is already in the next cell.
      inter_step(actuator, pkt);
      return;
    }
  }
  std::sort(candidates.begin(), candidates.end(), [&](NodeId x, NodeId y) {
    return distance_sq(world_->position(actuator), world_->position(x)) <
           distance_sq(world_->position(actuator), world_->position(y));
  });
  try_next_cell_corner(actuator, std::move(candidates), 0, pkt);
}

void ReferRouter::try_next_cell_corner(NodeId actuator,
                                       std::vector<NodeId> candidates,
                                       std::size_t i, PacketPtr pkt) {
  if (i >= candidates.size()) {
    drop(pkt, sim::DropReason::kAllSuccessorsFailed);
    return;
  }
  const NodeId to = candidates[i];
  channel_->unicast(
      actuator, to, pkt->bytes, EnergyBucket::kData,
      [this, actuator, candidates = std::move(candidates), i,
       pkt](bool ok) mutable {
        if (!ok) {
          ++stats_.failovers;
          ++pkt->failovers;
          if (tracing()) {
            sim::TraceRecord rec =
                trace_base(sim::TraceEvent::kFailover, *pkt, actuator);
            rec.alt_index = static_cast<int>(i) + 1;
            tracer_->emit(rec);
          }
          try_next_cell_corner(actuator, std::move(candidates), i + 1, pkt);
          return;
        }
        ++pkt->physical_hops;
        if (tracing()) {
          sim::TraceRecord rec =
              trace_base(sim::TraceEvent::kHopForward, *pkt, actuator);
          rec.to = candidates[i];
          tracer_->emit(rec);
        }
        inter_step(candidates[i], pkt);
      });
}

void ReferRouter::transmit_arc(NodeId from, NodeId to, PacketPtr pkt,
                               std::function<void(bool)> done) {
  channel_->unicast(
      from, to, pkt->bytes, EnergyBucket::kData,
      [this, from, to, pkt, done = std::move(done)](bool ok) mutable {
        if (ok) {
          ++pkt->physical_hops;
          done(true);
          return;
        }
        if (!config_.allow_relay) {
          done(false);
          return;
        }
        // The arc outgrew the direct range: look for a 1-relay detour via
        // a common physical neighbour (neighbour tables from maintenance
        // beacons).
        NodeId relay = -1;
        double best = std::numeric_limits<double>::infinity();
        if (world_->alive(from) && world_->alive(to)) {
          const Point from_at = world_->position(from);
          const Point to_at = world_->position(to);
          world_->visit_reachable(from, [&](NodeId r) {
            if (r == to || !world_->can_reach(r, to)) return;
            const Point p = world_->position(r);
            const double d = distance(from_at, p) + distance(p, to_at);
            if (d < best) {
              best = d;
              relay = r;
            }
          });
        }
        if (relay < 0) {
          done(false);
          return;
        }
        channel_->unicast(
            from, relay, pkt->bytes, EnergyBucket::kData,
            [this, relay, to, pkt, done = std::move(done)](bool ok1) mutable {
              if (!ok1) {
                done(false);
                return;
              }
              ++pkt->physical_hops;
              channel_->unicast(relay, to, pkt->bytes, EnergyBucket::kData,
                                [this, pkt, done = std::move(done)](bool ok2) {
                                  if (ok2) {
                                    ++pkt->physical_hops;
                                    ++stats_.relays_used;
                                  }
                                  done(ok2);
                                });
            });
      });
}

void ReferRouter::route_generation_failover(Cid cid, NodeId node,
                                            Label target, PacketPtr pkt) {
  const auto& cell = topology_->cell(cid);
  const auto dst_node = cell.node_of(target);
  if (!flooder_ || !dst_node || pkt->hops_left <= 0) {
    drop(pkt, pkt->hops_left <= 0 ? sim::DropReason::kTtlExpired
                                  : sim::DropReason::kFloodFailed);
    return;
  }
  ++stats_.route_gen_floods;
  flooder_->discover(
      node, *dst_node, config_.route_gen_ttl, sim::EnergyBucket::kMaintenance,
      [this, cid, node, target, dst_node = *dst_node,
       pkt](std::optional<std::vector<NodeId>> path) {
        if (!path || path->size() < 2) {
          drop(pkt, sim::DropReason::kFloodFailed);
          return;
        }
        net::send_along_path(
            *channel_, *path, pkt->bytes, EnergyBucket::kData,
            [this, cid, node, target, dst_node, pkt](std::size_t hops,
                                                     bool ok) {
              pkt->physical_hops += static_cast<int>(hops);
              if (!ok) {
                drop(pkt, sim::DropReason::kLinkFailed);
                return;
              }
              pkt->kautz_hops += 1;
              if (tracing()) {
                // The flooded path is one logical hop from node to
                // dst_node; record it (without overlay labels -- it is
                // not a Kautz arc) so delivered packets keep a
                // connected hop chain for trace_report's audit.
                sim::TraceRecord rec =
                    trace_base(sim::TraceEvent::kHopForward, *pkt, node);
                rec.to = dst_node;
                tracer_->emit(rec);
              }
              intra_step(cid, target, dst_node, pkt);
            });
      },
      config_.data_bytes / 16 + 32, config_.route_gen_deadline_s);
}

void ReferRouter::record_arc(const Label& u, const Label& next) {
  const int d = topology_->degree();
  if (arc_forwards_.empty()) {
    // (d+1) * d^{k-1} labels times d out-arcs each.  The cap only
    // guards against absurd (d, k) combinations; a K(2,3) cell has 36
    // arcs and even K(4,8) stays under a megabyte of counters.
    constexpr std::uint64_t kMaxArcs = std::uint64_t{1} << 22;
    std::uint64_t labels = static_cast<std::uint64_t>(d) + 1;
    for (int i = 1; i < u.length(); ++i) {
      labels *= static_cast<std::uint64_t>(d);
    }
    const std::uint64_t arcs = labels * static_cast<std::uint64_t>(d);
    if (arcs == 0 || arcs > kMaxArcs) return;
    arc_forwards_.assign(arcs, 0);
  }
  const int appended = static_cast<int>(next.last());
  const int forbidden = static_cast<int>(u.last());
  const int rank = appended < forbidden ? appended : appended - 1;
  const std::uint64_t idx =
      u.to_index(d) * static_cast<std::uint64_t>(d) +
      static_cast<std::uint64_t>(rank);
  if (idx < arc_forwards_.size()) ++arc_forwards_[idx];
}

void ReferRouter::deliver(NodeId at, PacketPtr pkt) {
  ++stats_.packets_delivered;
  if (tracing()) {
    tracer_->emit(trace_base(sim::TraceEvent::kPacketDelivered, *pkt, at));
  }
  DeliveryReport report;
  report.delivered = true;
  report.delay_s = sim_->now() - pkt->sent_at;
  report.kautz_hops = pkt->kautz_hops;
  report.physical_hops = pkt->physical_hops;
  report.failovers = pkt->failovers;
  report.final_node = at;
  report.packet_id = pkt->id;
  if (pkt->done) pkt->done(report);
}

void ReferRouter::drop(PacketPtr pkt, sim::DropReason reason) {
  ++stats_.packets_dropped;
  ++stats_.drops_by_reason[static_cast<std::size_t>(reason)];
  if (tracing()) {
    sim::TraceRecord rec =
        trace_base(sim::TraceEvent::kPacketDropped, *pkt, -1);
    rec.reason = reason;
    tracer_->emit(rec);
  }
  DeliveryReport report;
  report.delivered = false;
  report.delay_s = sim_->now() - pkt->sent_at;
  report.kautz_hops = pkt->kautz_hops;
  report.physical_hops = pkt->physical_hops;
  report.failovers = pkt->failovers;
  report.packet_id = pkt->id;
  report.drop_reason = reason;
  if (pkt->done) pkt->done(report);
}

}  // namespace refer::core
