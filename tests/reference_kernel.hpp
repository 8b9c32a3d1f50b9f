// The reference geometry kernels, test-only.  Every run uses the spatial
// grid plus the neighbor cache; the O(n) linear scan and the uncached
// grid walk survive only as World::set_spatial_index_enabled /
// set_neighbor_cache_enabled.  A RunObserver flips those setters before
// construction begins, so a whole scenario can be re-run on a reference
// kernel and compared with the default run field for field.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <string>
#include <utility>

#include "harness/experiment.hpp"
#include "runner/results_writer.hpp"
#include "sim/world.hpp"

namespace refer::kernel_test {

enum class ReferenceKernel { kUncachedGrid, kLinearScan };

[[nodiscard]] inline const char* to_string(ReferenceKernel kernel) {
  return kernel == ReferenceKernel::kLinearScan ? "linear scan"
                                                : "uncached grid";
}

/// Swaps the run's world onto `kernel` in on_run_start.
class ReferenceKernelObserver final : public harness::RunObserver {
 public:
  explicit ReferenceKernelObserver(ReferenceKernel kernel) : kernel_(kernel) {}
  void on_run_start(const harness::RunContext& ctx) override {
    ctx.world->set_neighbor_cache_enabled(false);
    ctx.world->set_spatial_index_enabled(kernel_ ==
                                         ReferenceKernel::kUncachedGrid);
  }

 private:
  ReferenceKernel kernel_;
};

/// The run rendered as a results-document job record, minus the
/// world.grid.* / world.neighbor_cache.* counters: those count the
/// kernel's own work, everything else must not depend on the kernel.
[[nodiscard]] inline std::string kernel_independent_json(
    harness::SystemKind kind, harness::RunMetrics metrics) {
  std::erase_if(metrics.observability, [](const StatsRegistry::Entry& e) {
    return e.name.starts_with("world.grid.") ||
           e.name.starts_with("world.neighbor_cache.");
  });
  harness::JobRecord record;
  record.system = kind;
  record.metrics = std::move(metrics);
  runner::ResultsWriter writer;
  writer.add_records({record});
  return writer.to_json();
}

/// Runs `sc` on the default kernel and again on each of `kernels`, and
/// expects every reference run to match the default one field for
/// field.  Returns the default run.
inline harness::RunMetrics expect_reference_kernels_agree(
    harness::SystemKind kind, harness::Scenario sc,
    std::initializer_list<ReferenceKernel> kernels) {
  harness::RunMetrics fast = harness::run_once(kind, sc);
  EXPECT_TRUE(fast.build_ok) << harness::to_string(kind);
  const std::string expected = kernel_independent_json(kind, fast);
  for (const ReferenceKernel kernel : kernels) {
    ReferenceKernelObserver observer(kernel);
    sc.observer = &observer;
    const std::string actual =
        kernel_independent_json(kind, harness::run_once(kind, sc));
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(expected.begin(), expected.end(), actual.begin(),
                      actual.end())
            .first -
        expected.begin());
    const std::size_t from = at < 80 ? 0 : at - 80;
    EXPECT_TRUE(actual == expected)
        << harness::to_string(kind) << " on the " << to_string(kernel)
        << " differs at byte " << at << ":\n  default:   "
        << expected.substr(from, 160) << "\n  reference: "
        << actual.substr(from, 160);
  }
  return fast;
}

}  // namespace refer::kernel_test
