// Per-layer rows of a traced run. Each layer is timed from outside, by
// calling its public functions in the benchmark's own process with the
// workload's parameters (value size, mix, keys, store configuration); the
// serving layers are read from the spawned processes' METRICS and STATS ops
// (serve.cpp). A layer that is not on a workload's path reports 0.
#pragma once

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/chameleon.hpp"
#include "flashsim/ssd_config.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace chameleon::bench {

struct LayerRow {
  std::string_view name;
  std::string_view unit;
};

/// Every per-layer metric, in report order. BENCHMARK.json lists the same
/// names; the bench_smoke test keeps the two in step.
inline constexpr LayerRow kLayerRows[] = {
    {"svc.get.decode_us", "us"},
    {"svc.get.admission_us", "us"},
    {"svc.get.queue_us", "us"},
    {"svc.get.store_exec_us", "us"},
    {"svc.get.completion_us", "us"},
    {"svc.get.flush_us", "us"},
    {"svc.get.unattributed_us", "us"},
    {"svc.put.decode_us", "us"},
    {"svc.put.admission_us", "us"},
    {"svc.put.queue_us", "us"},
    {"svc.put.store_exec_us", "us"},
    {"svc.put.wal_fsync_us", "us"},
    {"svc.put.completion_us", "us"},
    {"svc.put.flush_us", "us"},
    {"svc.put.unattributed_us", "us"},
    {"svc.shed_frac", "ratio"},
    {"svc.pipeline.handoff_us", "us"},
    {"svc.pipeline.exec_us", "us"},
    {"svc.pipeline.drains_per_kop", "count/kop"},
    {"svc.wire.encode_ns", "ns"},
    {"svc.wire.decode_ns", "ns"},
    {"common.crc32c_ns_per_kib", "ns/KiB"},
    {"kv.get_us", "us"},
    {"kv.put_us", "us"},
    {"core.epoch_ms", "ms"},
    {"core.epochs", "count"},
    {"durability.append_us", "us"},
    {"durability.fsync_us", "us"},
    {"durability.puts_per_fsync", "ratio"},
    {"flashsim.write_ns", "ns"},
    {"flashsim.gc_erases_per_kwrite", "count/kop"},
    {"flashsim.wa", "ratio"},
    {"ec.encode_us", "us"},
    {"ec.reconstruct_us", "us"},
    {"cluster.ring_lookup_ns", "ns"},
    {"dist.get_us", "us"},
    {"dist.put_us", "us"},
    {"dist.node_rtt_us", "us"},
    {"dist.fanout_rpcs_per_op", "ratio"},
    {"dist.reconstructions_per_kop", "count/kop"},
    {"dist.retry_later_frac", "ratio"},
    {"sim.erase_cv", "ratio"},
    {"sim.write_amp", "ratio"},
    {"sim.balance_bytes_per_user_byte", "ratio"},
    {"sim.migration_bytes_per_user_byte", "ratio"},
    {"sim.conversion_bytes_per_user_byte", "ratio"},
    {"sim.swap_bytes_per_user_byte", "ratio"},
    {"bench.lag_p99_us", "us"},
    {"bench.trace_overhead", "ratio"},
};

using LayerValues = std::map<std::string, double>;

/// One sample line of a Prometheus text exposition (the METRICS op).
struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};
std::vector<PromSample> parse_prometheus(const std::string& text);

/// Sum of the samples called `name` whose labels include every `match` pair.
double prom_sum(
    const std::vector<PromSample>& samples, std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        match = {});

/// Report every row of kLayerRows; a name missing from `values` reports 0.
/// Throws on a name that is not a row (a typo would otherwise vanish).
void emit_layers(const LayerValues& values, Report& report);

/// The store a chameleon_server builds for this workload (same sizing
/// arithmetic as tools/chameleon_server.cpp for the flags serve.cpp passes).
core::ChameleonConfig server_store_config(const ServeSpec& spec);

/// Inputs of the byte-level layers: wire codec, CRC32C, RS codec, hash ring,
/// WAL and one flash device.
struct ByteLayerParams {
  std::size_t value_bytes = 0;
  double read_ratio = 0.0;
  std::uint64_t keys = 0;
  std::uint32_t ring_servers = 0;
  std::uint32_t ring_vnodes = 0;
  std::size_t ring_successors = 0;
  flashsim::SsdConfig device;
  /// Live share of the device's logical pages.
  double utilisation = 0.0;
  std::filesystem::path scratch_dir;  ///< WAL segments go here
};

ByteLayerParams serve_byte_params(const ServeSpec& spec,
                                  const std::filesystem::path& scratch_dir);

/// svc.wire.*, common.crc32c_ns_per_kib, ec.*, cluster.ring_lookup_ns,
/// durability.append_us/fsync_us, flashsim.write_ns.
void time_byte_layers(const ByteLayerParams& params, std::uint64_t seed,
                      LayerValues& out);

/// svc.pipeline.*, kv.*, core.epoch_ms, core.epochs, on a store built like
/// the workload's server and preloaded with its keys.
void time_store_layers(const ServeSpec& spec, std::uint64_t seed,
                       LayerValues& out);

/// dist.get_us / dist.put_us through an in-process dist::Router against the
/// running nodes, on keys disjoint from the workload's.
void time_router_layers(const ServeSpec& spec,
                        const std::vector<std::uint16_t>& node_ports,
                        std::uint64_t seed, LayerValues& out);

/// Median round trip of a PING to one process through svc::ClientPool.
double node_rtt_us(std::uint16_t port);

}  // namespace chameleon::bench
