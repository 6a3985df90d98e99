#include "baselines/hybrid_rep_ec.hpp"

namespace chameleon::baselines {

void HybridRepEcPolicy::on_epoch(Epoch now) {
  HybridEpochReport report;
  report.epoch = now;

  // Collect first (acting inside for_each would re-enter the table locks).
  std::vector<ObjectId> to_convert;
  store_.table().for_each([&](const meta::ObjectMeta& m) {
    if (m.state != meta::RedState::kRep) return;
    if (now < m.state_since + opts_.min_age_epochs) return;
    if (m.heat(now) >= opts_.cold_threshold) return;
    to_convert.push_back(m.oid);
  });

  for (const ObjectId oid : to_convert) {
    if (report.conversions >= opts_.max_conversions_per_epoch) break;
    const auto live = store_.table().get(oid);
    if (!live || live->state != meta::RedState::kRep) continue;
    const auto dst = store_.place(oid, meta::RedState::kEc);
    store_.convert(oid, meta::RedState::kEc, dst,
                   cluster::Traffic::kConversion);
    ++report.conversions;
  }

  timeline_.push_back(report);
}

}  // namespace chameleon::baselines
