#include "core/balancer.hpp"

#include <limits>

#include "common/faults.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace chameleon::core {

using meta::ObjectMeta;
using meta::RedState;

namespace {

/// Periodic snapshot: per-server erase counters, wear dispersion gauges and
/// the Fig 8 state-census/wear trace events, emitted once per epoch.
void emit_epoch_observability(Epoch now,
                              const std::vector<ServerWearInfo>& wear,
                              const EpochSnapshot& snap,
                              std::size_t log_entries) {
  auto& reg = obs::metrics();
  for (const auto& info : wear) {
    const std::string server = std::to_string(info.server);
    reg.counter("chameleon_server_erases_total", {{"server", server}},
                "Block erases per server (cumulative)")
        .inc(info.erases_this_epoch);
    reg.gauge("chameleon_server_logical_utilization", {{"server", server}},
              "Stored logical pages / logical capacity per server")
        .set(info.logical_utilization);
  }
  reg.gauge("chameleon_wear_erase_mean", {},
            "Mean per-server cumulative erase count")
      .set(snap.erase_mean);
  reg.gauge("chameleon_wear_erase_stddev", {},
            "Population stddev of per-server erase counts (paper sigma)")
      .set(snap.erase_stddev);
  reg.gauge("chameleon_wear_cv", {},
            "Coefficient of variation of per-server erase counts")
      .set(snap.erase_mean > 0.0 ? snap.erase_stddev / snap.erase_mean : 0.0);
  const std::uint64_t pending =
      snap.census.objects_in(RedState::kLateRep) +
      snap.census.objects_in(RedState::kLateEc) +
      snap.census.objects_in(RedState::kRepEwo) +
      snap.census.objects_in(RedState::kEcEwo);
  reg.gauge("chameleon_pending_lazy_objects", {},
            "Objects in an intermediate state awaiting a materializing write")
      .set(static_cast<double>(pending));
  reg.gauge("chameleon_epoch_log_entries", {},
            "Live epoch-log entries across all mapping-table shards")
      .set(static_cast<double>(log_entries));

  auto& sink = obs::trace();
  if (sink.accepts(obs::TraceType::kStateCensus)) {
    for (std::size_t i = 0; i < snap.census.objects.size(); ++i) {
      obs::TraceEvent e;
      e.type = obs::TraceType::kStateCensus;
      e.epoch = now;
      e.from = std::string(meta::red_state_name(static_cast<RedState>(i)));
      e.a = snap.census.objects[i];
      e.b = snap.census.bytes[i];
      sink.record(std::move(e));
    }
  }
  if (sink.accepts(obs::TraceType::kWearSnapshot)) {
    obs::TraceEvent e;
    e.type = obs::TraceType::kWearSnapshot;
    e.epoch = now;
    e.a = snap.total_erases;
    e.value = snap.erase_mean;
    e.has_value = true;
    e.value2 = snap.erase_stddev;
    e.has_value2 = true;
    sink.record(std::move(e));
  }
  if (sink.accepts(obs::TraceType::kServerWear)) {
    for (const auto& info : wear) {
      obs::TraceEvent e;
      e.type = obs::TraceType::kServerWear;
      e.epoch = now;
      e.server = info.server;
      e.a = info.erase_count;
      e.b = info.erases_this_epoch;
      sink.record(std::move(e));
    }
  }
  if (snap.log_entries_compacted > 0 &&
      sink.accepts(obs::TraceType::kLogCompaction)) {
    obs::TraceEvent e;
    e.type = obs::TraceType::kLogCompaction;
    e.epoch = now;
    e.a = snap.log_entries_compacted;
    sink.record(std::move(e));
  }
}

}  // namespace

Balancer::Balancer(kv::KvStore& store, const ChameleonOptions& opts)
    : store_(store),
      opts_(opts),
      monitor_(store.cluster()),
      estimator_(store.cluster().ssd_config().pages_per_block,
                 store.cluster().ssd_config().page_size_bytes),
      arpt_(store, opts_),
      hcds_(store, opts_) {}

void Balancer::resolve_stale(Epoch now, EpochSnapshot& snap,
                             const std::set<ServerId>& excluded) {
  if (now < opts_.cold_resolve_epochs) return;
  const Epoch cutoff = now - opts_.cold_resolve_epochs;

  struct Stale {
    ObjectId oid;
    RedState state;
    meta::ServerSet dst;
    Epoch since;
  };
  std::vector<Stale> stale;
  store_.table().for_each_pending([&](const ObjectMeta& m) {
    if (m.state_since > cutoff) return;
    if (m.last_write_epoch >= m.state_since) return;  // a write will resolve it
    stale.push_back({m.oid, m.state, m.dst, m.state_since});
  });

  // Eager materialization is real data movement: rate-limit it, oldest
  // transitions first. (Cancellations are metadata-only and always allowed,
  // so the cap is only consumed by the materializing branches below.) The
  // sort is a total order, so the pending set's visit order does not matter.
  std::sort(stale.begin(), stale.end(), [](const Stale& a, const Stale& b) {
    return a.since < b.since || (a.since == b.since && a.oid < b.oid);
  });
  const std::size_t eager_cap = ChameleonOptions::effective_cap(
      std::numeric_limits<std::size_t>::max(), opts_.eager_resolve_fraction,
      store_.table().object_count());
  std::size_t eager_done = 0;

  const auto dst_full = [this](const meta::ObjectMeta& m) {
    for (const ServerId s : m.dst) {
      if (!m.src.contains(s) &&
          store_.cluster().server(s).logical_utilization() >
              opts_.space_guard_utilization) {
        return true;
      }
    }
    return false;
  };
  const auto dst_unhealthy = [&excluded](const meta::ServerSet& dst) {
    for (const ServerId sid : dst) {
      if (excluded.contains(sid)) return true;
    }
    return false;
  };

  for (const Stale& s : stale) {
    const auto live = store_.table().get(s.oid);
    if (!live || live->state != s.state) continue;
    // A destination that has filled since scheduling cancels the move.
    if ((s.state == RedState::kLateEc || s.state == RedState::kEcEwo) &&
        dst_full(*live)) {
      const RedState back = meta::current_scheme(s.state);
      store_.table().mutate(s.oid, [&](ObjectMeta& m) {
        if (m.state != s.state) return;
        m.state = back;
        m.dst.clear();
        m.state_since = now;
      });
      store_.table().log_change(s.oid,
                                meta::EpochLogEntry{now, back, {}, {}});
      ++snap.cold_cancelled;
      continue;
    }
    switch (s.state) {
      case RedState::kLateEc:
        // Cold data headed for EC: encode it eagerly — waiting longer only
        // prolongs the wear imbalance (paper §III-B2, cold-stripe migration).
        if (eager_done < eager_cap && !dst_unhealthy(s.dst)) {
          try {
            store_.convert(s.oid, RedState::kEc, s.dst,
                           cluster::Traffic::kConversion, now);
          } catch (const TransientFault&) {
            break;  // injected fault mid-move: still pending, retry next epoch
          }
          ++snap.cold_materialized;
          ++eager_done;
        }
        break;
      case RedState::kEcEwo:
        if (eager_done < eager_cap && !dst_unhealthy(s.dst)) {
          try {
            store_.relocate(s.oid, s.dst, cluster::Traffic::kSwap, now);
          } catch (const TransientFault&) {
            break;
          }
          ++snap.cold_materialized;
          ++eager_done;
        } else if (eager_done >= eager_cap &&
                   now >= s.since + 2 * opts_.cold_resolve_epochs) {
          // The eager budget cannot keep up and the swap decision has gone
          // stale (wear has evolved since); cancel in place so the pending
          // pool does not block fresh HCDS decisions.
          store_.table().mutate(s.oid, [&](ObjectMeta& m) {
            if (m.state != RedState::kEcEwo) return;
            m.state = RedState::kEc;
            m.dst.clear();
            m.state_since = now;
          });
          store_.table().log_change(
              s.oid, meta::EpochLogEntry{now, RedState::kEc, {}, {}});
          ++snap.cold_cancelled;
        }
        break;
      case RedState::kLateRep:
        // A "hot" object that never got written again is not hot: revert to
        // its stored EC form with zero data movement (Fig 3, epoch 4).
        store_.table().mutate(s.oid, [&](ObjectMeta& m) {
          if (m.state != RedState::kLateRep) return;
          m.state = RedState::kEc;
          m.dst.clear();
          m.state_since = now;
        });
        store_.table().log_change(
            s.oid, meta::EpochLogEntry{now, RedState::kEc, {}, {}});
        ++snap.cold_cancelled;
        break;
      case RedState::kRepEwo:
        // The swap targeted a hot replica that cooled; moving it no longer
        // helps, so cancel in place.
        store_.table().mutate(s.oid, [&](ObjectMeta& m) {
          if (m.state != RedState::kRepEwo) return;
          m.state = RedState::kRep;
          m.dst.clear();
          m.state_since = now;
        });
        store_.table().log_change(
            s.oid, meta::EpochLogEntry{now, RedState::kRep, {}, {}});
        ++snap.cold_cancelled;
        break;
      default:
        break;
    }
  }
}

void Balancer::on_epoch(Epoch now, const std::set<ServerId>& excluded) {
  EpochSnapshot snap;
  snap.epoch = now;

  // 1. Heartbeats: gather per-server wear statistics at the coordinator.
  const auto wear = monitor_.collect(now);
  estimator_.update(wear);

  // 2. Host-managed background GC: idle servers pre-clean their free pools
  // (open-channel capability, §III-A) so future bursts stall less.
  if (opts_.background_gc_free_target > 0.0) {
    double mean_pages = 0.0;
    for (const auto& info : wear) {
      mean_pages += static_cast<double>(info.host_pages_this_epoch);
    }
    mean_pages /= static_cast<double>(wear.size());
    for (const auto& info : wear) {
      if (static_cast<double>(info.host_pages_this_epoch) <=
          mean_pages * opts_.background_gc_idle_factor) {
        store_.cluster()
            .server(info.server)
            .log()
            .ftl()
            .background_gc(opts_.background_gc_max_victims,
                           opts_.background_gc_free_target);
      }
    }
  }

  // 3. Resolve transitions that have waited too long for a write.
  resolve_stale(now, snap, excluded);

  // 4. Trigger the balancing algorithms on the wear-variance thresholds.
  RunningStats erase_stats;
  for (const auto& info : wear) {
    erase_stats.add(static_cast<double>(info.erase_count));
  }
  const double sigma = erase_stats.stddev();
  const double mean = erase_stats.mean();
  const double arpt_threshold = opts_.sigma_arpt_abs > 0.0
                                    ? opts_.sigma_arpt_abs
                                    : opts_.sigma_arpt_cv * mean;
  const double hcds_threshold = opts_.sigma_hcds_abs > 0.0
                                    ? opts_.sigma_hcds_abs
                                    : opts_.sigma_hcds_cv * mean;

  if (opts_.enable_arpt && mean > 0.0 && sigma > arpt_threshold) {
    snap.arpt = arpt_.run(now, wear, estimator_, excluded);
  }
  if (opts_.enable_hcds && mean > 0.0 && sigma > hcds_threshold) {
    snap.hcds = hcds_.run(now, wear, estimator_, excluded);
  }

  // 5. Periodic epoch-log compaction (Fig 3).
  if (opts_.compact_every > 0 && now % opts_.compact_every == 0) {
    snap.log_entries_compacted = store_.table().compact_logs();
  }

  // 6. Telemetry for Fig 8 and the reports.
  snap.census = store_.table().census();
  snap.erase_mean = mean;
  snap.erase_stddev = sigma;
  snap.total_erases = store_.cluster().total_erases();
  snap.balancing_network_bytes = store_.cluster().network().balancing_bytes();
  if (obs::enabled()) {
    emit_epoch_observability(now, wear, snap,
                             store_.table().log_entry_count());
  }
  timeline_.push_back(snap);
}

}  // namespace chameleon::core
