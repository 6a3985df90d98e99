#include "core/hcds.hpp"

#include <algorithm>
#include <optional>

#include "common/faults.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chameleon::core {

using meta::ObjectMeta;
using meta::RedState;
using meta::ServerSet;

namespace {

double stddev_of(const std::vector<double>& v) {
  RunningStats s;
  for (const double x : v) s.add(x);
  return s.stddev();
}

double mean_of(const std::vector<double>& v) {
  RunningStats s;
  for (const double x : v) s.add(x);
  return s.mean();
}

/// Most/least-worn server among those not excluded; nullopt when the
/// excluded set covers every server.
std::optional<ServerId> argmax(const std::vector<double>& v,
                               const std::set<ServerId>& excluded) {
  std::optional<ServerId> best;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto id = static_cast<ServerId>(i);
    if (excluded.contains(id)) continue;
    if (!best || v[i] > v[*best]) best = id;
  }
  return best;
}

std::optional<ServerId> argmin(const std::vector<double>& v,
                               const std::set<ServerId>& excluded) {
  std::optional<ServerId> best;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto id = static_cast<ServerId>(i);
    if (excluded.contains(id)) continue;
    if (!best || v[i] < v[*best]) best = id;
  }
  return best;
}

}  // namespace

bool Hcds::schedule_move(const Candidate& c, ServerId from, ServerId to,
                         Epoch now, HcdsReport& report) {
  const auto live = store_.table().get(c.oid);
  if (!live || meta::is_intermediate(live->state)) return false;
  if (!live->src.contains(from) || live->src.contains(to)) return false;
  // Space guard on the receiving server.
  if (store_.cluster().server(to).logical_utilization() >
      opts_.space_guard_utilization) {
    return false;
  }

  // Destination set: same servers with `from` replaced by `to`.
  ServerSet dst;
  for (const ServerId s : live->src) dst.push_back(s == from ? to : s);

  const auto record_swap = [&](const RedState armed_state) {
    static auto& swaps = obs::metrics().counter(
        "chameleon_hcds_swaps_total", {},
        "HCDS hot/cold data swaps scheduled (lazy EWO or eager relocation)");
    swaps.inc();
    auto& sink = obs::trace();
    if (sink.accepts(obs::TraceType::kHcdsSwap)) {
      obs::TraceEvent e;
      e.type = obs::TraceType::kHcdsSwap;
      e.epoch = now;
      e.oid = c.oid;
      e.server = from;
      e.peer = to;
      e.from = std::string(meta::red_state_name(armed_state));
      e.value = c.heat;
      e.has_value = true;
      sink.record(std::move(e));
    }
  };

  if (opts_.eager_conversions) {
    try {
      store_.relocate(c.oid, dst, cluster::Traffic::kSwap, now);
    } catch (const TransientFault&) {
      return false;  // injected fault mid-move: leave the object in place
    }
    ++report.eager_relocations;
    if (obs::enabled()) record_swap(live->state);
    return true;
  }

  const RedState ewo = live->state == RedState::kRep ? RedState::kRepEwo
                                                     : RedState::kEcEwo;
  store_.table().mutate(c.oid, [&](ObjectMeta& m) {
    if (meta::is_intermediate(m.state)) return;
    m.state = ewo;
    m.dst = dst;
    m.state_since = now;
  });
  store_.table().log_change(
      c.oid, meta::EpochLogEntry{now, ewo, live->src, dst});
  if (obs::enabled()) record_swap(ewo);
  return true;
}

HcdsReport Hcds::run(Epoch now, const std::vector<ServerWearInfo>& wear,
                     const WearEstimator& estimator,
                     const std::set<ServerId>& excluded) {
  HcdsReport report;
  report.triggered = true;

  std::vector<double> est(wear.size(), 0.0);
  for (const auto& info : wear) {
    est[info.server] = static_cast<double>(info.erase_count);
  }
  report.sigma_before = stddev_of(est);

  const double target = opts_.sigma_hcds_abs > 0.0
                            ? opts_.sigma_hcds_abs
                            : opts_.sigma_hcds_cv * mean_of(est);
  const std::size_t ec_k = store_.config().ec_data;

  index_.rebuild(store_.table(), store_.cluster().size(), now);
  double sigma = report.sigma_before;
  std::size_t swap_cap = ChameleonOptions::effective_cap(
      opts_.max_hcds_swaps, opts_.hcds_swap_fraction,
      store_.table().object_count());

  // Respect the outstanding-EWO ceiling (Fig 8: <=20% of data pending).
  const auto census = store_.table().census();
  const std::size_t pending =
      census.objects_in(meta::RedState::kRepEwo) +
      census.objects_in(meta::RedState::kEcEwo);
  const auto pending_ceiling = std::max<std::size_t>(
      4, static_cast<std::size_t>(opts_.max_pending_ewo_fraction *
                                  static_cast<double>(census.total_objects())));
  const std::size_t headroom =
      pending >= pending_ceiling ? 0 : pending_ceiling - pending;
  swap_cap = std::min(swap_cap, headroom);

  while (sigma > target && report.swaps < swap_cap) {
    const auto x_pick = argmax(est, excluded);  // most worn
    const auto y_pick = argmin(est, excluded);  // least worn
    if (!x_pick || !y_pick || *x_pick == *y_pick) break;
    const ServerId x = *x_pick;
    const ServerId y = *y_pick;

    const Candidate* hot = index_.take_hottest(x, y, store_.table());
    bool progressed = false;
    if (hot != nullptr && schedule_move(*hot, x, y, now, report)) {
      est[x] -= estimator.object_cost(x, hot->heat, hot->size_bytes,
                                      hot->state, ec_k);
      est[y] += estimator.object_cost(y, hot->heat, hot->size_bytes,
                                      hot->state, ec_k);
      progressed = true;
    }

    const Candidate* cold = index_.take_coldest(y, x, store_.table());
    if (cold != nullptr && schedule_move(*cold, y, x, now, report)) {
      est[y] -= estimator.object_cost(y, cold->heat, cold->size_bytes,
                                      cold->state, ec_k);
      est[x] += estimator.object_cost(x, cold->heat, cold->size_bytes,
                                      cold->state, ec_k);
      progressed = true;
    }

    if (!progressed) break;  // both extremes exhausted their candidates
    ++report.swaps;
    sigma = stddev_of(est);
  }

  report.sigma_after_est = sigma;
  return report;
}

}  // namespace chameleon::core
