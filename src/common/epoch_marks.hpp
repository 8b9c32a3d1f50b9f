// Epoch-stamped marks over dense node ids: an O(1) "already seen in this
// pass?" set whose clear is one increment instead of a fill or a fresh
// hash set.  D-DEAR's k-hop walks and the Flooder's per-flood slots keep
// one each and reuse it for every pass.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace refer {

class EpochMarks {
 public:
  /// Starts a new pass with every id unmarked and ids below `size`
  /// addressable without growth.  Call once before the first mark.
  void clear(std::size_t size) {
    if (stamps_.size() < size) stamps_.resize(size, 0);
    if (++epoch_ == 0) {  // wrapped: stamps from 2^32 passes ago collide
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Marks `id`; true iff it was unmarked in this pass.
  bool mark(std::size_t id) {
    if (id >= stamps_.size()) stamps_.resize(id + 1, 0);
    if (stamps_[id] == epoch_) return false;
    stamps_[id] = epoch_;
    return true;
  }

  [[nodiscard]] bool marked(std::size_t id) const {
    return id < stamps_.size() && stamps_[id] == epoch_;
  }

 private:
  std::vector<std::uint32_t> stamps_;
  std::uint32_t epoch_ = 0;
};

}  // namespace refer
