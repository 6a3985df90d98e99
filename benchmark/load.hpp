// The load the benchmark drives against a serve deployment, all from this
// one process: a per-thread operation stream derived from the seed, a
// closed loop over svc::ClientPool, an open loop that sends on a fixed
// schedule over its own pipelined connections, and the AckLedger readback
// that checks every acknowledged write.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "svc/ack_ledger.hpp"
#include "svc/client_conn.hpp"
#include "workload/zipf.hpp"
#include "workloads.hpp"

namespace chameleon::bench {

std::string key_name(std::uint64_t key);

/// Closed-loop goodput is sampled per slice of about this length.
inline constexpr double kSliceSeconds = 0.25;

/// One client thread's operation stream. GETs draw any key; PUTs draw only
/// keys of this thread's partition (key % threads == thread), so every key
/// has exactly one writer and the ledger check is exact.
class OpStream {
 public:
  OpStream(const ServeSpec& spec, std::uint64_t seed, unsigned thread);

  struct Op {
    bool is_get = true;
    std::uint64_t key = 0;
  };
  Op next();

  /// Keys this thread writes during the preload.
  std::vector<std::uint64_t> partition() const;

 private:
  std::uint64_t draw();

  const ServeSpec& spec_;
  unsigned thread_;
  Xoshiro256 rng_;
  workload::ZipfGenerator zipf_;
};

/// The ledger of every PUT sent, plus the value generator: each
/// write gets a unique tag in its first bytes, so value CRCs tell writes
/// apart and a readback can name the write it found.
class WriteLog {
 public:
  WriteLog(std::size_t value_bytes, std::uint64_t seed);

  struct Write {
    std::vector<std::uint8_t> value;
    std::uint64_t seq = 0;
  };
  /// Build the next value for `key` and record it in the ledger.
  Write next_write(const std::string& key);
  void acked(const std::string& key, std::uint64_t seq) {
    ledger_.acked(key, seq);
  }
  const svc::AckLedger& ledger() const { return ledger_; }

 private:
  std::size_t value_bytes_;
  std::uint64_t seed_;
  std::atomic<std::uint64_t> next_tag_{1};
  svc::AckLedger ledger_;
};

/// Outcome of one load phase.
struct LoadStats {
  /// Closed loop: the span around each ClientPool call.
  /// Open loop: completion time minus the request's due time.
  std::vector<double> get_ns;
  std::vector<double> put_ns;
  /// Open loop: send time minus due time.
  std::vector<double> lag_ns;
  /// Open loop: (due time offset in ns, latency ns, is_get) per completed op,
  /// for the sub-window spread.
  struct Sample {
    double due_ns;
    double latency_ns;
    bool is_get;
  };
  std::vector<Sample> samples;
  /// Closed loop: successful ops completed in each slice of slice_s
  /// seconds (kSliceSeconds, or the whole phase when it is shorter).
  std::vector<double> slice_ops;
  double slice_s = kSliceSeconds;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;

  /// Append samples and add counts. Slice counts add element-wise, which is
  /// meaningful for the threads of one phase only.
  void merge(const LoadStats& other);
  /// Closed loop: the median over slices of the completion rate, so a stall
  /// (a balancing epoch, a slow fsync, a descheduled host) costs only the
  /// slices it covers.
  double goodput() const { return median(slice_ops) / slice_s; }
};

svc::ClientConfig client_config(std::uint16_t port);

/// Write every key once (each thread its own partition).
LoadStats preload(svc::ClientPool& pool, std::vector<OpStream>& streams,
                  WriteLog& log);

/// Each thread issues its next op as soon as the previous one returns, for
/// `seconds`.
LoadStats closed_loop(svc::ClientPool& pool, std::vector<OpStream>& streams,
                      WriteLog& log, double seconds);

/// `rate` ops/s in total for `seconds`, split evenly over the threads, each
/// on its own connection to 127.0.0.1:`port`. A request is sent when due
/// whether or not earlier ones have been answered, and is timed from its due
/// time, so a stall shows in every request it delays.
LoadStats open_loop(std::uint16_t port, std::vector<OpStream>& streams,
                    WriteLog& log, double rate, double seconds);

struct ReadbackResult {
  std::uint64_t keys = 0;
  std::uint64_t failed = 0;      ///< GETs that errored
  std::uint64_t violations = 0;  ///< acked write lost or value never written
};

/// GET every key with an acknowledged write and check it against the ledger.
ReadbackResult readback(svc::ClientPool& pool, const WriteLog& log);

}  // namespace chameleon::bench
