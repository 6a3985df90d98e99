// The wear balancer (paper §III-A): runs on the coordinator, gathers
// monitor heartbeats each epoch, resolves stale lazy transitions, compacts
// epoch logs, and fires ARPT / HCDS when the wear variance crosses their
// thresholds. Also records the per-epoch telemetry that reproduces Fig 8.
// Object heats (Eq 1) are not folded here: every reader evaluates the
// closed form at its own epoch (ObjectMeta::heat).
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "core/arpt.hpp"
#include "core/flash_monitor.hpp"
#include "core/hcds.hpp"
#include "core/options.hpp"
#include "core/wear_estimator.hpp"
#include "kv/kv_store.hpp"
#include "meta/mapping_table.hpp"

namespace chameleon::core {

/// Everything observable about one balancing epoch.
struct EpochSnapshot {
  Epoch epoch = 0;
  meta::StateCensus census;       ///< objects/bytes per redundancy state
  double erase_mean = 0.0;
  double erase_stddev = 0.0;
  std::uint64_t total_erases = 0;
  std::uint64_t balancing_network_bytes = 0;  ///< cumulative
  ArptReport arpt;
  HcdsReport hcds;
  std::size_t cold_materialized = 0;  ///< stale pending-EC resolved eagerly
  std::size_t cold_cancelled = 0;     ///< stale pending-REP reverted
  std::size_t log_entries_compacted = 0;
};

class Balancer {
 public:
  Balancer(kv::KvStore& store, const ChameleonOptions& opts);

  /// Epoch-boundary hook; call once per epoch with the new epoch index.
  void on_epoch(Epoch now) { on_epoch(now, {}); }

  /// Same, but with a set of servers that must not be picked as placement
  /// destinations this epoch (dead, suspect, or repair-pending — supplied by
  /// the supervisor). Moves whose destination intersects the set are simply
  /// deferred; they retry on a later epoch once the server is healthy.
  void on_epoch(Epoch now, const std::set<ServerId>& excluded);

  const std::vector<EpochSnapshot>& timeline() const { return timeline_; }
  const ChameleonOptions& options() const { return opts_; }
  FlashMonitor& monitor() { return monitor_; }

 private:
  /// Resolve intermediate-state objects that have not been written since
  /// they were scheduled (opts_.cold_resolve_epochs ago): pending-EC data is
  /// materialized eagerly (the paper's cold-stripe migration), pending-REP
  /// data is cancelled back to its current scheme (Fig 3). Materializations
  /// whose destination intersects `excluded` (or that hit an injected
  /// transient fault) stay pending and retry next epoch.
  void resolve_stale(Epoch now, EpochSnapshot& snap,
                     const std::set<ServerId>& excluded);

  kv::KvStore& store_;
  ChameleonOptions opts_;
  FlashMonitor monitor_;
  WearEstimator estimator_;
  Arpt arpt_;
  Hcds hcds_;
  std::vector<EpochSnapshot> timeline_;
};

}  // namespace chameleon::core
