// Hot/Cold Data Swapping — Algorithm 2.
//
// While the projected wear variance exceeds sigma_HCDS, exchange the hottest
// object hosted on the most-worn server with the coldest object hosted on
// the least-worn server. The exchange itself is lazy: both objects enter an
// EWO intermediate state (REP-EWO / EC-EWO) and are physically re-placed by
// their next write — endurance-aware write offloading instead of bulk
// migration.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "core/candidate_index.hpp"
#include "core/flash_monitor.hpp"
#include "core/options.hpp"
#include "core/wear_estimator.hpp"
#include "kv/kv_store.hpp"

namespace chameleon::core {

struct HcdsReport {
  bool triggered = false;
  std::size_t swaps = 0;            ///< object pairs exchanged (lazily)
  std::size_t eager_relocations = 0;  ///< eager-mode ablation only
  double sigma_before = 0.0;
  double sigma_after_est = 0.0;
};

class Hcds {
 public:
  Hcds(kv::KvStore& store, const ChameleonOptions& opts)
      : store_(store), opts_(opts) {}

  /// Run one HCDS round. Servers in `excluded` (dead, suspect, or
  /// repair-pending) take no part in the swap: they are neither picked as
  /// the worn/fresh extreme nor used as a swap destination.
  HcdsReport run(Epoch now, const std::vector<ServerWearInfo>& wear,
                 const WearEstimator& estimator,
                 const std::set<ServerId>& excluded = {});

 private:
  /// Schedule one object's fragment on `from` to move to `to`. Returns true
  /// if the object could be scheduled.
  bool schedule_move(const Candidate& c, ServerId from, ServerId to,
                     Epoch now, HcdsReport& report);

  kv::KvStore& store_;
  const ChameleonOptions& opts_;
  CandidateIndex index_;  ///< rebuilt every run; keeps its storage
};

}  // namespace chameleon::core
