#include "app/control_loop.hpp"

#include <algorithm>

#include "common/geometry.hpp"
#include "common/stats.hpp"
#include "sim/telemetry.hpp"

namespace refer::app {

using baselines::Delivery;
using sim::NodeId;

ControlLoopEngine::ControlLoopEngine(
    const harness::Scenario& scenario, sim::Simulator& sim, sim::World& world,
    sim::Channel& channel, sim::Tracer& tracer,
    baselines::WsanSystem& system, const std::vector<NodeId>& actuators,
    const std::vector<NodeId>& sensors, StatsRegistry& stats)
    : scenario_(scenario),
      sim_(sim),
      world_(world),
      channel_(channel),
      tracer_(tracer),
      system_(system),
      actuators_(actuators),
      sensors_(sensors),
      latency_ms_(&stats.histogram("app.loop_latency_ms")),
      // A stream independent of the deployment / workload / fault rngs:
      // the app tier must not perturb what the routing layers draw.
      rng_(scenario.seed ^ 0xA117D00DCAFE5EEDULL) {}

void ControlLoopEngine::emit(sim::TraceEvent event, NodeId from, NodeId to,
                             std::int64_t packet, std::size_t bytes,
                             int hop_index) {
  if (!tracer_.enabled()) return;
  sim::TraceRecord rec;
  rec.t = sim_.now();
  rec.event = event;
  rec.from = from;
  rec.to = to;
  rec.bytes = bytes;
  rec.packet = packet;
  rec.hop_index = hop_index;
  tracer_.emit(rec);
}

void ControlLoopEngine::start(double t0, double measure_from,
                              double measure_to) {
  t0_ = t0;
  measure_from_ = measure_from;
  measure_to_ = measure_to;

  // Fault windows: scripted entries (relative to t0) plus Poisson
  // break/repair draws, merged per actuator.  Entries naming an
  // actuator the deployment does not have are dropped.  The schedule
  // parses: the benches script valid ones and verify::load_repro refuses
  // the rest.
  std::vector<FaultWindow> windows;
  (void)parse_fault_schedule(scenario_.app_fault_schedule, windows);
  {
    std::vector<FaultWindow> poisson = poisson_fault_windows(
        static_cast<int>(actuators_.size()), scenario_.app_break_rate_hz,
        scenario_.app_repair_s, measure_to_ - t0_, rng_);
    windows.insert(windows.end(), poisson.begin(), poisson.end());
  }
  windows.erase(std::remove_if(windows.begin(), windows.end(),
                               [this](const FaultWindow& w) {
                                 return w.actuator_index >=
                                        static_cast<int>(actuators_.size());
                               }),
                windows.end());
  windows_ = merge_windows(std::move(windows));

  supervisors_.reserve(actuators_.size());
  for (std::size_t a = 0; a < actuators_.size(); ++a) {
    std::vector<FaultWindow> own;
    for (const FaultWindow& w : windows_) {
      if (w.actuator_index == static_cast<int>(a)) own.push_back(w);
    }
    supervisors_.emplace_back(static_cast<int>(a), actuators_[a],
                              std::move(own));
  }

  // SmartOrchard-style registration handshake: every sensor binds to
  // its nearest (believed-up) actuator before traffic starts.
  registered_.assign(sensors_.size(), -1);
  for (std::size_t s = 0; s < sensors_.size(); ++s) {
    register_sensor(static_cast<int>(s));
  }

  schedule_keepalive(1);
  schedule_sensing_events();
}

int ControlLoopEngine::nearest_up_actuator(int sensor_index) {
  const Point p = world_.position(sensors_[static_cast<std::size_t>(
      sensor_index)]);
  int best = -1;
  double best_d = 0;
  for (std::size_t a = 0; a < supervisors_.size(); ++a) {
    if (supervisors_[a].believed_down()) continue;
    const double d = distance(p, world_.position(actuators_[a]));
    if (best < 0 || d < best_d) {
      best = static_cast<int>(a);
      best_d = d;
    }
  }
  return best;
}

void ControlLoopEngine::register_sensor(int sensor_index) {
  const int a = nearest_up_actuator(sensor_index);
  if (a < 0) return;  // every actuator believed down: keep the old binding
  registered_[static_cast<std::size_t>(sensor_index)] = a;
  ++registrations_;
  emit(sim::TraceEvent::kAppRegister,
       sensors_[static_cast<std::size_t>(sensor_index)],
       actuators_[static_cast<std::size_t>(a)]);
}

void ControlLoopEngine::schedule_keepalive(int tick) {
  const double at = t0_ + tick * scenario_.app_keepalive_period_s;
  if (at >= measure_to_) return;
  sim_.schedule_at(at, [this, tick] { on_keepalive_tick(tick); });
}

void ControlLoopEngine::on_keepalive_tick(int tick) {
  const double rel = tick * scenario_.app_keepalive_period_s;
  if (scenario_.planted_bug == 2 && tick == 1 && !supervisors_.empty()) {
    // TESTING ONLY (Scenario::planted_bug): a spurious recovery
    // handshake with no preceding believed-down span, so the invariant
    // engine can prove it audits the registration state machine.
    emit(sim::TraceEvent::kAppActuatorUp, supervisors_[0].node(), -1);
  }
  for (ActuatorSupervisor& sup : supervisors_) {
    const ActuatorSupervisor::Tick outcome = sup.on_keepalive(
        tick, rel, scenario_.app_keepalive_miss_limit);
    switch (outcome) {
      case ActuatorSupervisor::Tick::kAlive:
        break;
      case ActuatorSupervisor::Tick::kMiss:
      case ActuatorSupervisor::Tick::kStillDown:
        ++keepalive_misses_;
        emit(sim::TraceEvent::kAppKeepaliveMiss, sup.node(), -1, -1, 0,
             sup.misses());
        break;
      case ActuatorSupervisor::Tick::kWentDown: {
        ++keepalive_misses_;
        emit(sim::TraceEvent::kAppKeepaliveMiss, sup.node(), -1, -1, 0,
             sup.misses());
        emit(sim::TraceEvent::kAppActuatorDown, sup.node(), -1);
        // Fail-over: every sensor bound here re-registers with the
        // nearest actuator still believed up.
        for (std::size_t s = 0; s < registered_.size(); ++s) {
          if (registered_[s] == sup.index()) {
            register_sensor(static_cast<int>(s));
          }
        }
        break;
      }
      case ActuatorSupervisor::Tick::kRecovered: {
        // First clean keepalive after repair = the actuator's own
        // re-registration handshake; the believed-down span is the
        // recovery time (exact tick arithmetic).
        ++recoveries_;
        recovery_sum_s_ += sup.last_recovery_ticks() *
                           scenario_.app_keepalive_period_s;
        emit(sim::TraceEvent::kAppActuatorUp, sup.node(), -1);
        break;
      }
    }
  }
  schedule_keepalive(tick + 1);
}

void ControlLoopEngine::schedule_sensing_events() {
  const Rect area{{0, 0}, {scenario_.area_side_m, scenario_.area_side_m}};
  field_.generate_poisson(area, scenario_.app_event_period_s,
                          measure_to_ - t0_, kEventDurationS, rng_);
  for (const sensing::Event& event : field_.events()) {
    const double at = t0_ + event.start_s;
    if (at >= measure_to_) continue;
    sim_.schedule_at(at, [this, &event] { on_event_start(event); });
  }
}

void ControlLoopEngine::on_event_start(const sensing::Event& event) {
  // Threshold-triggered sensing: sensors sample the detection model in
  // index order (deterministic draw sequence); the first few detectors
  // each close a loop for this event.
  int started = 0;
  for (std::size_t s = 0; s < sensors_.size() && started < kMaxLoopsPerEvent;
       ++s) {
    if (!world_.alive(sensors_[s])) continue;
    if (!detector_.detects(rng_, world_.position(sensors_[s]), event)) {
      continue;
    }
    start_loop(static_cast<int>(s));
    ++started;
  }
}

void ControlLoopEngine::start_loop(int sensor_index) {
  const double now = sim_.now();
  Loop loop;
  loop.id = next_loop_id_++;
  loop.sensor_index = sensor_index;
  loop.sense_t = now;
  loop.counted = now >= measure_from_ && now < measure_to_;
  if (loop.counted) {
    ++loops_started_;
    if (telemetry_) telemetry_->on_app_loop_start(now);
  }
  const std::size_t slot = loops_.size();
  loops_.push_back(loop);

  // Uplink: the report is a normal workload packet through whichever
  // routing stack is under test.
  system_.send_event(sensors_[static_cast<std::size_t>(sensor_index)],
                     scenario_.packet_bytes,
                     [this, slot](const Delivery& d) { on_uplink(slot, d); });
  sim_.schedule_at(now + scenario_.app_loop_deadline_s,
                   [this, slot] { on_deadline(slot); });
}

void ControlLoopEngine::on_uplink(std::size_t loop_slot, const Delivery& d) {
  if (!d.delivered) return;  // the deadline timer will record the miss
  const Loop& loop = loops_[loop_slot];
  const int a = registered_[static_cast<std::size_t>(loop.sensor_index)];
  if (a < 0) return;
  ActuatorSupervisor& sup = supervisors_[static_cast<std::size_t>(a)];
  // The registered actuator decides and actuates.  Believed-down
  // bindings only persist when every actuator is down, and a fault
  // window not yet noticed by the keepalives still blocks actuation --
  // the loop then misses its deadline, which is the point.
  if (sup.believed_down() || sup.broken_at(sim_.now() - t0_)) return;
  const NodeId sensor =
      sensors_[static_cast<std::size_t>(loop.sensor_index)];
  emit(sim::TraceEvent::kAppActuate, sup.node(), sensor, loop.id,
       kCommandBytes);
  const NodeId actuator_node = sup.node();
  channel_.unicast(actuator_node, sensor, kCommandBytes,
                   sim::EnergyBucket::kData,
                   [this, loop_slot](bool ok) { on_command(loop_slot, ok); });
}

void ControlLoopEngine::on_command(std::size_t loop_slot, bool delivered) {
  if (!delivered) return;
  Loop& loop = loops_[loop_slot];
  if (loop.completed) return;
  loop.completed = true;
  const double latency_s = sim_.now() - loop.sense_t;
  emit(sim::TraceEvent::kAppLoopComplete,
       registered_[static_cast<std::size_t>(loop.sensor_index)] >= 0
           ? actuators_[static_cast<std::size_t>(
                 registered_[static_cast<std::size_t>(loop.sensor_index)])]
           : -1,
       sensors_[static_cast<std::size_t>(loop.sensor_index)], loop.id);
  if (!loop.counted) return;
  ++loops_completed_;
  latencies_ms_.push_back(latency_s * 1000.0);
  latency_ms_->record(latency_s * 1000.0);
  const bool within =
      !loop.missed && latency_s <= scenario_.app_loop_deadline_s;
  if (within) ++loops_within_deadline_;
  if (telemetry_) {
    telemetry_->on_app_loop_done(loop.sense_t, within, latency_s * 1000.0);
  }
}

void ControlLoopEngine::on_deadline(std::size_t loop_slot) {
  Loop& loop = loops_[loop_slot];
  if (loop.completed || loop.missed) return;
  loop.missed = true;
  emit(sim::TraceEvent::kAppLoopMiss,
       sensors_[static_cast<std::size_t>(loop.sensor_index)], -1, loop.id);
}

AppMetrics ControlLoopEngine::finalize() {
  AppMetrics m;
  m.loops_started = loops_started_;
  m.loops_completed = loops_completed_;
  m.loops_within_deadline = loops_within_deadline_;
  m.loop_completion_ratio =
      loops_started_ ? static_cast<double>(loops_within_deadline_) /
                           static_cast<double>(loops_started_)
                     : 0.0;
  m.loop_p50_ms = percentile(latencies_ms_, 50);
  m.loop_p95_ms = percentile(latencies_ms_, 95);
  m.loop_p99_ms = percentile(latencies_ms_, 99);
  const double denom = static_cast<double>(supervisors_.size()) *
                       (measure_to_ - measure_from_);
  m.actuator_availability =
      denom > 0
          ? 1.0 - broken_time_in(windows_, measure_from_ - t0_,
                                 measure_to_ - t0_) /
                      denom
          : 1.0;
  m.recoveries = recoveries_;
  m.mean_recovery_s =
      recoveries_ ? recovery_sum_s_ / static_cast<double>(recoveries_) : 0.0;
  return m;
}

void ControlLoopEngine::export_stats(StatsRegistry& stats) const {
  stats.counter("app.loops_started").set(loops_started_);
  stats.counter("app.loops_completed").set(loops_completed_);
  stats.counter("app.loops_within_deadline").set(loops_within_deadline_);
  stats.counter("app.registrations").set(registrations_);
  stats.counter("app.keepalive_misses").set(keepalive_misses_);
  stats.counter("app.recoveries").set(recoveries_);
}

}  // namespace refer::app
