#include "baselines/edm.hpp"

#include <algorithm>

#include "common/stats.hpp"
#include "core/options.hpp"

namespace chameleon::baselines {

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

ServerId argmax(const std::vector<double>& v) {
  ServerId best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = static_cast<ServerId>(i);
  }
  return best;
}

ServerId argmin(const std::vector<double>& v) {
  ServerId best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] < v[best]) best = static_cast<ServerId>(i);
  }
  return best;
}

}  // namespace

EdmBalancer::EdmBalancer(kv::KvStore& store, const EdmOptions& opts)
    : store_(store),
      opts_(opts),
      monitor_(store.cluster()),
      estimator_(store.cluster().ssd_config().pages_per_block,
                 store.cluster().ssd_config().page_size_bytes) {}

void EdmBalancer::on_epoch(Epoch now) {
  EdmEpochReport report;
  report.epoch = now;

  const auto wear = monitor_.collect(now);
  estimator_.update(wear);

  std::vector<double> est(wear.size(), 0.0);
  for (const auto& info : wear) {
    est[info.server] = static_cast<double>(info.erase_count);
  }
  report.sigma_before = stddev_of(est);
  const double mean = mean_of(est);
  const double target =
      opts_.sigma_abs > 0.0 ? opts_.sigma_abs : opts_.sigma_cv * mean;

  if (mean > 0.0 && report.sigma_before > target) {
    report.triggered = true;
    // EDM/SWANS-style selection: ranked by lifetime write count, not decayed
    // heat — blind to hot-set drift, which is what Chameleon's Eq 1 fixes.
    core::CandidateIndex index(store_.table(), store_.cluster().size(), now,
                               core::HeatKind::kCumulative);
    double sigma = report.sigma_before;
    const std::uint64_t migration_bytes_before =
        store_.cluster().network().bytes(cluster::Traffic::kMigration);
    const std::size_t cap = core::ChameleonOptions::effective_cap(
        opts_.max_migrations, opts_.migration_fraction,
        store_.table().object_count());

    while (sigma > target && report.migrations < cap) {
      const ServerId x = argmax(est);
      const ServerId y = argmin(est);
      if (x == y) break;
      // Space guard: migration piles data onto the least-worn server; stop
      // before overfilling it.
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

      // The defining EDM move: bulk data migration, paid in device writes.
      store_.relocate(c->oid, dst, cluster::Traffic::kMigration);
      ++report.migrations;

      // EDM projects wear from raw write counts (average writes/epoch),
      // without Eq 2's victim-utilization model or heat decay.
      const double naive_rate =
          c->heat / std::max(1.0, static_cast<double>(now));
      const double pages =
          std::max(1.0, static_cast<double>(store_.fragment_bytes(
                            c->size_bytes, meta::current_scheme(c->state))) /
                            static_cast<double>(
                                store_.cluster().ssd_config().page_size_bytes));
      const double naive_cost =
          naive_rate * pages /
          static_cast<double>(
              store_.cluster().ssd_config().pages_per_block);
      est[x] -= naive_cost;
      est[y] += naive_cost;
      sigma = stddev_of(est);
    }
    report.sigma_after_est = sigma;
    report.bytes_moved =
        store_.cluster().network().bytes(cluster::Traffic::kMigration) -
        migration_bytes_before;
  }

  timeline_.push_back(report);
}

}  // namespace chameleon::baselines
