#include "sim/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "common/clock.hpp"
#include "common/stats.hpp"
#include "common/logging.hpp"
#include "fault/digest.hpp"
#include "kv/kv_store.hpp"
#include "sim/shard_executor.hpp"
#include "workload/registry.hpp"

namespace chameleon::sim {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kRepBaseline: return "REP-baseline";
    case Scheme::kEcBaseline: return "EC-baseline";
    case Scheme::kRepEcBaseline: return "REP+EC-baseline";
    case Scheme::kEdmRep: return "EDM(REP)";
    case Scheme::kEdmEc: return "EDM(EC)";
    case Scheme::kSwansEc: return "SWANS(EC)";
    case Scheme::kChameleonRep: return "Chameleon(REP)";
    case Scheme::kChameleonEc: return "Chameleon(EC)";
  }
  return "?";
}

meta::RedState initial_scheme_of(Scheme s) {
  switch (s) {
    case Scheme::kRepBaseline:
    case Scheme::kRepEcBaseline:
    case Scheme::kEdmRep:
    case Scheme::kChameleonRep:
      return meta::RedState::kRep;
    case Scheme::kEcBaseline:
    case Scheme::kEdmEc:
    case Scheme::kSwansEc:
    case Scheme::kChameleonEc:
      return meta::RedState::kEc;
  }
  return meta::RedState::kEc;
}

bool scheme_balances(Scheme s) {
  return s != Scheme::kRepBaseline && s != Scheme::kEcBaseline;
}

namespace {

/// Pre-pass: place every distinct object of the stream on a throwaway ring
/// identical to the cluster's and return the most-loaded server's bytes
/// under the initial scheme. Sizing devices off the *max* (not the mean)
/// absorbs consistent-hashing skew; `dataset_bytes` is the fallback when a
/// stream cannot be enumerated.
std::uint64_t max_server_bytes(workload::WorkloadStream& stream,
                               const ExperimentConfig& config,
                               const kv::KvConfig& kv_config,
                               std::uint64_t dataset_bytes) {
  cluster::HashRing ring(config.servers, config.ring_vnodes);
  std::vector<std::uint64_t> load(config.servers, 0);
  std::unordered_map<ObjectId, std::uint32_t> seen;

  const bool rep = kv_config.initial_scheme == meta::RedState::kRep;
  const std::size_t fragments = rep ? kv_config.replicas : kv_config.ec_total;

  // Fragments occupy whole flash pages; count page-rounded bytes, otherwise
  // small EC shards (e.g. 1KB of a 4KB object) under-estimate the footprint
  // by up to the page size.
  const flashsim::SsdConfig page_ref;
  const std::uint64_t page = page_ref.page_size_bytes;

  stream.reset();
  workload::TraceRecord rec;
  while (stream.next(rec)) {
    if (!seen.try_emplace(rec.oid, rec.size_bytes).second) continue;
    const std::uint64_t frag_bytes =
        rep ? rec.size_bytes
            : (rec.size_bytes + kv_config.ec_data - 1) / kv_config.ec_data;
    const std::uint64_t frag_pages_bytes =
        std::max<std::uint64_t>(1, (frag_bytes + page - 1) / page) * page;
    for (const ServerId s :
         ring.successors(kv::KvStore::placement_hash(rec.oid), fragments)) {
      load[s] += frag_pages_bytes;
    }
  }
  stream.reset();

  std::uint64_t max_load = 0;
  for (const auto b : load) max_load = std::max(max_load, b);
  if (max_load == 0) {
    // Empty stream: fall back to the nominal mean share.
    const double factor = rep ? static_cast<double>(kv_config.replicas)
                              : static_cast<double>(kv_config.ec_total) /
                                    static_cast<double>(kv_config.ec_data);
    max_load = static_cast<std::uint64_t>(
        static_cast<double>(dataset_bytes) * factor /
        static_cast<double>(config.servers));
  }
  return max_load;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const auto stream =
      workload::make_preset(config.workload, config.scale, config.seed);
  const auto preset_cfg =
      workload::preset_config(config.workload).scaled(config.scale);
  return run_experiment_on(config, *stream, preset_cfg.dataset_bytes);
}

ExperimentResult run_experiment_on(const ExperimentConfig& config,
                                   workload::WorkloadStream& stream,
                                   std::uint64_t dataset_bytes) {
  const auto wall_start = std::chrono::steady_clock::now();

  kv::KvConfig kv_config;
  kv_config.initial_scheme = initial_scheme_of(config.scheme);
  kv_config.multi_stream = config.multi_stream;

  // Size each SSD so the *most-loaded* server under the initial scheme sits
  // at the target utilization. All schemes sharing an initial policy get
  // identical devices, which is what makes Fig 4b/5b/6b/7b comparisons
  // apples-to-apples.
  const std::uint64_t per_server_bytes =
      max_server_bytes(stream, config, kv_config, dataset_bytes);
  flashsim::SsdConfig ssd = flashsim::SsdConfig::sized_for(
      per_server_bytes, config.target_utilization);

  cluster::Cluster cluster(config.servers, ssd, config.ring_vnodes);
  meta::MappingTable table;
  kv::KvStore store(cluster, table, kv_config);

  // Sharded parallel stepping (bit-identical to sequential; see
  // docs/PARALLELISM.md). The executor defers per-device flash work to
  // worker threads; all logical decisions stay on this thread.
  std::unique_ptr<ShardExecutor> exec;
  if (config.workers > 1) {
    ShardExecutor::Options opts;
    opts.workers = config.workers;
    // A device closure costs well under a microsecond, so shard workers
    // idle between publishes and each publish pays a condvar wake on this
    // thread. Publish in larger chunks (docs/PARALLELISM.md).
    opts.publish_chunk = 256;
    exec = std::make_unique<ShardExecutor>(cluster, opts);
    cluster.attach_executor(exec.get());
  }

  // Balancing policy per Table IV.
  std::unique_ptr<core::Balancer> chameleon;
  std::unique_ptr<baselines::EdmBalancer> edm;
  std::unique_ptr<baselines::HybridRepEcPolicy> hybrid;
  std::unique_ptr<baselines::SwansBalancer> swans;
  switch (config.scheme) {
    case Scheme::kChameleonRep:
    case Scheme::kChameleonEc:
      chameleon = std::make_unique<core::Balancer>(store, config.chameleon);
      break;
    case Scheme::kEdmRep:
    case Scheme::kEdmEc:
      edm = std::make_unique<baselines::EdmBalancer>(store, config.edm);
      break;
    case Scheme::kRepEcBaseline:
      hybrid =
          std::make_unique<baselines::HybridRepEcPolicy>(store, config.hybrid);
      break;
    case Scheme::kSwansEc:
      swans = std::make_unique<baselines::SwansBalancer>(store, config.swans);
      break;
    default:
      break;
  }

  ExperimentResult result;
  result.workload = stream.name();
  result.scheme = config.scheme;
  result.servers = config.servers;

  VirtualClock clock;
  Epoch last_epoch = 0;
  // Client-visible put latency distribution (0 - 100ms, 20us bins).
  Histogram put_latency(0.0, 1e8, 5000);

  // Deferred put tokens, in submission order. Flushed at every drain fence:
  // tokens must be consumed before the next op begins after a drain (the
  // executor recycles resolved ops there), and feeding the histogram in
  // submission order keeps it byte-identical to sequential mode.
  std::vector<std::int64_t> pending_puts;
  const auto flush = [&] {
    if (!exec) return;
    exec->drain();
    for (const std::int64_t token : pending_puts) {
      put_latency.add(static_cast<double>(exec->resolved_latency(token)));
    }
    pending_puts.clear();
  };

  const std::uint32_t drain_batch = std::max<std::uint32_t>(1, config.drain_batch);
  stream.reset();
  workload::TraceRecord rec;
  while (stream.next(rec)) {
    clock.advance_to(rec.timestamp);
    const Epoch epoch = clock.epoch_of(config.epoch_length);
    while (last_epoch < epoch) {
      ++last_epoch;
      if (exec) {
        // Control-plane sections run inline between a drain fence and
        // resume — exactly the sequential interleaving.
        flush();
        exec->set_bypassed(true);
      }
      if (chameleon) chameleon->on_epoch(last_epoch);
      if (edm) edm->on_epoch(last_epoch);
      if (hybrid) hybrid->on_epoch(last_epoch);
      if (swans) swans->on_epoch(last_epoch);
      if (exec) exec->set_bypassed(false);
    }

    ++result.requests;
    if (rec.is_write) {
      const auto op = store.put(rec.oid, rec.size_bytes, epoch);
      if (op.pending >= 0) {
        pending_puts.push_back(op.pending);
      } else {
        put_latency.add(static_cast<double>(op.latency));
      }
      ++result.write_ops;
    } else {
      // Block traces read extents they never wrote in the captured window;
      // materialize such objects first (a warm-up load write).
      if (!table.exists(rec.oid)) {
        store.put(rec.oid, rec.size_bytes, epoch);
        ++result.load_writes;
      }
      store.get(rec.oid, epoch);
      ++result.read_ops;
    }
    if (exec && result.requests % drain_batch == 0) flush();
  }
  flush();
  if (exec) cluster.attach_executor(nullptr);

  // Collect the figure metrics.
  result.erase_counts = cluster.erase_counts();
  const auto stats = cluster.erase_stats();
  result.erase_mean = stats.mean();
  result.erase_stddev = stats.stddev();
  result.total_erases = cluster.total_erases();
  result.write_amplification = cluster.write_amplification();
  result.avg_device_write_latency = cluster.avg_write_latency();
  result.put_latency_p50 = static_cast<Nanos>(put_latency.percentile(50));
  result.put_latency_p99 = static_cast<Nanos>(put_latency.percentile(99));
  result.network_bytes_total = cluster.network().total_bytes();
  result.migration_bytes =
      cluster.network().bytes(cluster::Traffic::kMigration);
  result.conversion_bytes =
      cluster.network().bytes(cluster::Traffic::kConversion);
  result.swap_bytes = cluster.network().bytes(cluster::Traffic::kSwap);
  result.final_census = table.census();
  if (chameleon && config.collect_timeline) {
    result.chameleon_timeline = chameleon->timeline();
  }
  // Equivalence oracle: computed in both modes so any run pair can be
  // cross-checked (tests, the workers=1-vs-N CI smoke, cached bench rows).
  result.state_digest = fault::cluster_digest(store);

  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  LOG_DEBUG << "experiment " << result.workload << "/"
            << scheme_name(result.scheme) << " done in " << result.wall_seconds
            << "s, " << result.requests << " reqs";
  return result;
}

}  // namespace chameleon::sim
