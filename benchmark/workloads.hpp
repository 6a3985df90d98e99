// The benchmark's serve workloads: traffic mix, data sizes, deployment and
// the frozen open-loop rate of each. A value changed here changes the
// benchmark itself (README.md records how each was chosen). wear_sim, the
// fourth workload, is defined in wear_sim.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string_view>

#include "report.hpp"

namespace chameleon::bench {

/// Load shape shared by every serve workload: one client process, two
/// client threads, two connections. The machine the benchmark was sized on
/// has 4 CPUs; the servers need the other two.
inline constexpr unsigned kClientThreads = 2;
inline constexpr double kWarmupSeconds = 1.0;
inline constexpr int kClosedReps = 3;
inline constexpr int kSetupReps = 5;
/// Deadline stamped into every request; a request that misses it fails.
inline constexpr std::uint32_t kDeadlineMs = 1000;
/// Open-loop validity: the generator may fire at most this late (p99).
inline constexpr double kMaxLagP99Us = 1000.0;
/// Requests one open-loop connection keeps in flight; half the server's
/// default per-session credits (64), so the client never gets shed.
inline constexpr std::size_t kOpenLoopWindow = 32;

/// chameleon_server settings every workload passes explicitly, so the
/// in-process layer timings can rebuild the same store.
inline constexpr std::uint32_t kFlashServers = 8;
inline constexpr std::uint64_t kEpochEveryOps = 10'000;

struct ServeSpec {
  std::string_view name;
  std::uint64_t keys;
  std::size_t value_bytes;
  double read_ratio;
  bool zipf;  ///< Zipf(0.99) key popularity; false = uniform
  /// Open-loop rate in ops/s, about 40% of the closed-loop goodput measured
  /// when the benchmark was introduced, then frozen.
  double open_rate;
  std::uint32_t capacity_mb;     ///< chameleon_server capacity_mb=
  std::uint32_t server_workers;  ///< chameleon_server workers=
  bool durable;  ///< data_dir=, fsync=always, group_commit=1
  /// 1 = one chameleon_server; 3 = three servers behind chameleon_router
  /// striping RS(2+1).
  std::uint32_t nodes;
};

// kv_write_durable: 2,048 keys x 4 KiB are stored as 3 replica pages each,
// 24 MiB of flash pages = 60% of capacity_mb=40 after redundancy.
inline constexpr ServeSpec kServeSpecs[] = {
    {"kv_read_mostly", 10'000, 256, 0.95, true, 15'000.0, 256, 2, false, 1},
    {"kv_write_durable", 2'048, 4096, 0.10, false, 1'800.0, 40, 2, true, 1},
    {"dist_stripe", 4'000, 1024, 0.50, true, 1'400.0, 256, 1, false, 3},
};

inline const ServeSpec* find_serve_spec(std::string_view name) {
  for (const ServeSpec& spec : kServeSpecs) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

struct RunContext {
  std::uint64_t seed = 1;
  /// Measured time of the run: a serve workload spends half of it in the
  /// closed loop (kClosedReps reps) and half in the open loop; wear_sim
  /// repeats the simulation until it has run this long.
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< logs, port files, WAL directories
};

/// kv_read_mostly, kv_write_durable, dist_stripe (serve.cpp).
void run_serve(const ServeSpec& spec, const RunContext& ctx, Report& report);
/// wear_sim (wear_sim.cpp).
void run_wear_sim(const RunContext& ctx, Report& report);

}  // namespace chameleon::bench
