#include "baselines/swans.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "core/options.hpp"

namespace chameleon::baselines {

SwansBalancer::SwansBalancer(kv::KvStore& store, const SwansOptions& opts)
    : store_(store), opts_(opts), monitor_(store.cluster()) {}

void SwansBalancer::on_epoch(Epoch now) {
  SwansEpochReport report;
  report.epoch = now;

  const auto wear = monitor_.collect(now);

  // Per-epoch write intensity per server (what SWANS monitors).
  std::vector<double> intensity(wear.size(), 0.0);
  RunningStats stats;
  for (const auto& info : wear) {
    intensity[info.server] = static_cast<double>(info.host_pages_this_epoch);
    stats.add(intensity[info.server]);
  }
  report.intensity_cv_before = stats.cv();

  if (stats.mean() >= opts_.min_mean_pages &&
      stats.cv() > opts_.intensity_cv) {
    report.triggered = true;
    core::CandidateIndex index(store_.table(), store_.cluster().size(), now,
                               core::HeatKind::kCumulative);
    const std::size_t cap = core::ChameleonOptions::effective_cap(
        opts_.max_migrations, opts_.migration_fraction,
        store_.table().object_count());

    while (report.migrations < cap) {
      // Most- and least-written servers this epoch.
      ServerId x = 0;
      ServerId y = 0;
      for (std::size_t i = 1; i < intensity.size(); ++i) {
        if (intensity[i] > intensity[x]) x = static_cast<ServerId>(i);
        if (intensity[i] < intensity[y]) y = static_cast<ServerId>(i);
      }
      if (x == y || intensity[x] <= intensity[y]) break;
      if (store_.cluster().server(y).logical_utilization() >
          opts_.space_guard_utilization) {
        break;
      }
      const core::Candidate* c = index.take_hottest(x, y, store_.table());
      if (c == nullptr) break;
      const auto live = store_.table().get(c->oid);
      if (!live || !live->src.contains(x) || live->src.contains(y)) continue;

      meta::ServerSet dst;
      for (const ServerId s : live->src) dst.push_back(s == x ? y : s);
      store_.relocate(c->oid, dst, cluster::Traffic::kMigration);
      ++report.migrations;

      // Shift the redistributed write share in the intensity projection.
      const double share =
          c->heat / std::max(1.0, static_cast<double>(now));
      intensity[x] -= share;
      intensity[y] += share;
    }
  }

  timeline_.push_back(report);
}

}  // namespace chameleon::baselines
