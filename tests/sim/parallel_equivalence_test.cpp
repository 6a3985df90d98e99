// Cross-mode equivalence suite: the sharded parallel engine must be
// byte-for-byte identical to sequential stepping. For every workload x
// worker-count pair we compare the full cluster digest (object metadata,
// fragment presence, stored pages, erase history), every figure-level
// result field, and the observability snapshots. One scenario additionally
// replays a fault schedule (crashes, stalls, device errors) through the
// executor's bypass fences and demands the same applied-fault log and final
// digest at any worker count.
#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/digest.hpp"
#include "fault/fault_injector.hpp"
#include "kv/client.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "sim/shard_executor.hpp"
#include "workload/zipf.hpp"

namespace chameleon::sim {
namespace {

const std::uint32_t kWorkerCounts[] = {2, 4, 8};

ExperimentConfig small_config(const std::string& workload, Scheme scheme) {
  ExperimentConfig cfg;
  cfg.workload = workload;
  cfg.scheme = scheme;
  cfg.servers = 12;
  cfg.scale = 0.002;  // a few thousand requests: fast but epoch-crossing
  cfg.seed = 7;
  return cfg;
}

/// Render a metrics snapshot to one canonical string. Doubles are printed
/// via hexfloat so the comparison is bitwise, not approximate.
std::string render_samples(const std::vector<obs::MetricSample>& samples) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& s : samples) {
    out << s.name;
    for (const auto& [k, v] : s.labels) out << ',' << k << '=' << v;
    out << ' ' << s.value;
    if (s.histogram) {
      out << " count=" << s.histogram->count << " sum=" << s.histogram->sum
          << " under=" << s.histogram->underflow
          << " over=" << s.histogram->overflow;
      for (const auto& [le, cum] : s.histogram->cumulative) {
        out << ' ' << le << ':' << cum;
      }
    }
    out << '\n';
  }
  return out.str();
}

struct ObservedRun {
  ExperimentResult result;
  std::string metrics;
};

ObservedRun run_observed(ExperimentConfig cfg, std::uint32_t workers) {
  cfg.workers = workers;
  obs::set_enabled(true);
  obs::metrics().reset_values();
  ObservedRun run;
  run.result = run_experiment(cfg);
  run.metrics = render_samples(obs::metrics().snapshot());
  obs::set_enabled(false);
  return run;
}

void expect_equivalent(const ObservedRun& base, const ObservedRun& par,
                       std::uint32_t workers) {
  const ExperimentResult& a = base.result;
  const ExperimentResult& b = par.result;
  SCOPED_TRACE("workload=" + a.workload + " scheme=" +
               std::string(scheme_name(a.scheme)) + " workers=" +
               std::to_string(workers));
  EXPECT_EQ(a.state_digest, b.state_digest);
  EXPECT_EQ(a.erase_counts, b.erase_counts);
  EXPECT_EQ(a.total_erases, b.total_erases);
  EXPECT_EQ(a.erase_mean, b.erase_mean);
  EXPECT_EQ(a.erase_stddev, b.erase_stddev);
  EXPECT_EQ(a.write_amplification, b.write_amplification);
  EXPECT_EQ(a.avg_device_write_latency, b.avg_device_write_latency);
  EXPECT_EQ(a.put_latency_p50, b.put_latency_p50);
  EXPECT_EQ(a.put_latency_p99, b.put_latency_p99);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.write_ops, b.write_ops);
  EXPECT_EQ(a.read_ops, b.read_ops);
  EXPECT_EQ(a.load_writes, b.load_writes);
  EXPECT_EQ(a.network_bytes_total, b.network_bytes_total);
  EXPECT_EQ(a.migration_bytes, b.migration_bytes);
  EXPECT_EQ(a.conversion_bytes, b.conversion_bytes);
  EXPECT_EQ(a.swap_bytes, b.swap_bytes);
  EXPECT_EQ(a.final_census.objects, b.final_census.objects);
  EXPECT_EQ(a.final_census.bytes, b.final_census.bytes);
  EXPECT_EQ(a.chameleon_timeline.size(), b.chameleon_timeline.size());
  EXPECT_EQ(base.metrics, par.metrics);
}

struct EquivalenceCase {
  const char* workload;
  Scheme scheme;
};

// gtest prints the parameter into each listed test name, and ctest registers
// that name. The default printer shows a `const char*` with its address,
// which differs on every run, so the scheme is printed instead (the workload
// is already the case name).
void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << scheme_name(c.scheme);
}

class ParallelEquivalence : public ::testing::TestWithParam<EquivalenceCase> {
};

TEST_P(ParallelEquivalence, BitIdenticalAcrossWorkerCounts) {
  const auto& [workload, scheme] = GetParam();
  const ExperimentConfig cfg = small_config(workload, scheme);
  const ObservedRun base = run_observed(cfg, 1);
  ASSERT_NE(base.result.state_digest, 0u);
  for (const std::uint32_t workers : kWorkerCounts) {
    const ObservedRun par = run_observed(cfg, workers);
    expect_equivalent(base, par, workers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ParallelEquivalence,
    ::testing::Values(
        EquivalenceCase{"ycsb-zipf", Scheme::kChameleonEc},
        EquivalenceCase{"mds_0", Scheme::kEdmRep},
        EquivalenceCase{"web_1", Scheme::kRepEcBaseline}),
    [](const auto& info) {
      std::string name = info.param.workload;
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ParallelEquivalence, DrainBatchDoesNotChangeResults) {
  // The fence cadence is a parallelism knob, never a results knob.
  ExperimentConfig cfg = small_config("ycsb-zipf", Scheme::kChameleonEc);
  cfg.workers = 4;
  cfg.drain_batch = 1024;
  const auto a = run_experiment(cfg);
  cfg.drain_batch = 17;
  const auto b = run_experiment(cfg);
  EXPECT_EQ(a.state_digest, b.state_digest);
  EXPECT_EQ(a.put_latency_p99, b.put_latency_p99);
}

// ---------------------------------------------------------------------------
// Fault-schedule equivalence: a chaos-style run (crashes, stalls, device
// error windows, repairs) driven through the executor's fences. Fault-armed
// servers execute inline (ShardExecutor::deferrable), so exceptions fire at
// the same op-stream positions as sequential mode.

struct FaultRun {
  std::vector<fault::AppliedFault> applied;
  std::uint64_t digest = 0;
  std::uint64_t value_hash = 0;
  std::size_t torn = 0;
};

FaultRun run_faulted(std::uint32_t workers) {
  constexpr std::uint32_t kServers = 12;
  constexpr Epoch kEpochs = 16;
  constexpr std::size_t kOpsPerEpoch = 60;

  flashsim::SsdConfig ssd;
  ssd.pages_per_block = 8;
  ssd.block_count = 256;
  ssd.static_wl_delta = 0;
  kv::KvConfig kv_config;
  kv_config.initial_scheme = meta::RedState::kEc;

  cluster::Cluster cluster(kServers, ssd);
  meta::MappingTable table;
  kv::KvStore store(cluster, table, kv_config);
  core::Supervisor supervisor(store, core::ChameleonOptions{}, kHour);
  fault::FaultInjector injector(
      supervisor, store,
      fault::FaultSchedule::parse("seed 606\n"
                                  "at 3 crash server=2 dur=4\n"
                                  "at 6 stall server=5 dur=3\n"
                                  "at 9 read_error server=1 rate=0.3 dur=3\n"
                                  "at 11 write_error server=8 rate=0.2 dur=3\n"));
  kv::Client client(store);  // default RetryPolicy: op_timeout 0 (unlimited)

  std::unique_ptr<ShardExecutor> exec;
  if (workers > 1) {
    ShardExecutor::Options opts;
    opts.workers = workers;
    exec = std::make_unique<ShardExecutor>(cluster, opts);
    cluster.attach_executor(exec.get());
  }

  Xoshiro256 wrng(8606);
  workload::ZipfGenerator zipf(48, 0.9);
  std::map<std::string, std::vector<std::uint8_t>> expected;
  std::set<std::string> torn;
  FaultRun out;

  const auto run_epoch = [&](Epoch e, bool with_ops) {
    // Control plane inline between fences, exactly like sequential mode.
    if (exec) {
      exec->drain();
      exec->set_bypassed(true);
    }
    injector.on_epoch(e);
    if (exec) exec->set_bypassed(false);
    if (with_ops) {
      for (std::size_t op = 0; op < kOpsPerEpoch; ++op) {
        const std::string key = "key-" + std::to_string(zipf.next(wrng));
        if (!expected.contains(key) || wrng.next_bool(0.5)) {
          std::vector<std::uint8_t> value(
              1024 + static_cast<std::size_t>(wrng.next_below(4)) * 512);
          std::uint64_t x = mix64(fnv1a64(key) + e);
          for (auto& b : value) {
            x = mix64(x);
            b = static_cast<std::uint8_t>(x);
          }
          try {
            client.put_with_retry(key, std::span<const std::uint8_t>(value),
                                  e);
            expected[key] = std::move(value);
            torn.erase(key);
          } catch (const kv::RetriesExhausted&) {
            torn.insert(key);
          }
        } else {
          try {
            client.get_with_retry(key, e, injector.stalled_servers());
          } catch (const kv::RetriesExhausted&) {
          }
        }
      }
    }
    if (exec) {
      exec->drain();
      exec->set_bypassed(true);
    }
    supervisor.on_epoch(e, static_cast<Nanos>(e) * kHour);
    if (exec) exec->set_bypassed(false);
  };

  Epoch e = 1;
  for (; e <= kEpochs; ++e) run_epoch(e, true);
  const Epoch drain_limit = e + 120;
  while (e < drain_limit && !(injector.idle() &&
                              supervisor.repair().pending_repairs().empty())) {
    run_epoch(e++, false);
  }

  if (exec) {
    exec->drain();
    cluster.attach_executor(nullptr);
  }
  out.applied = injector.applied_log();
  out.digest = fault::cluster_digest(store);
  out.torn = torn.size();
  // Values the cluster still serves, folded into one order-independent-free
  // fingerprint (iterated in map order, so the order is deterministic too).
  for (const auto& [key, value] : expected) {
    if (torn.contains(key)) continue;
    out.value_hash =
        mix64(out.value_hash ^ fnv1a64(key) ^ fnv1a64(value.data(),
                                                      value.size()));
  }
  return out;
}

TEST(ParallelEquivalence, FaultScheduleBitIdentical) {
  const FaultRun base = run_faulted(1);
  ASSERT_FALSE(base.applied.empty());
  for (const std::uint32_t workers : {2u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const FaultRun par = run_faulted(workers);
    EXPECT_EQ(base.applied, par.applied);
    EXPECT_EQ(base.digest, par.digest);
    EXPECT_EQ(base.value_hash, par.value_hash);
    EXPECT_EQ(base.torn, par.torn);
  }
}

}  // namespace
}  // namespace chameleon::sim
