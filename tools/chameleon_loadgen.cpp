// chameleon_loadgen — load generator / latency prober for chameleon_server.
//
//   chameleon_loadgen --target=HOST:PORT [key=value...]
//
// Flags (leading "--" optional):
//   target=127.0.0.1:7421  server address
//   ops=100000             total operations to issue
//   concurrency=4          closed-loop worker threads
//   connections=4          pooled connections shared by the workers
//   read_ratio=0.5         fraction of GETs (rest are PUTs)
//   keys=10000             distinct keys, drawn Zipf(theta) by popularity
//   zipf_theta=0.99        key-popularity skew (0 = uniform-ish)
//   value_bytes=256        PUT payload size
//   open_rate=0            target ops/sec; 0 = closed loop (max throughput)
//   preload=1              PUT every key once before the timed run
//   seed=42                workload RNG seed (deterministic key/op stream)
//   metrics_out=PATH       scrape the server's METRICS op at the end
//                          ("-" = stdout)
//   latency_out=PATH       dump the full latency histograms as JSON
//                          ("-" = stdout): every bucket count plus the
//                          exact per-op sum/count/min/max (from a parallel
//                          RunningStats, not re-derived from the binned
//                          histogram), so downstream tooling can recompute
//                          any percentile or mean without precision loss
//   digest=0               fetch the cluster state digest (DIGEST op) at the
//                          end and print "digest: <16 hex>"; with ops=0 and
//                          preload=0 this is a pure state probe, which is
//                          how crash-recovery CI compares state across a
//                          kill -9 restart
//   health=0               fetch the HEALTH report at the end and print
//                          "health: <json>"; against a router the JSON
//                          carries the live-node count, which is how
//                          distributed CI probes degraded membership
//   deadline_ms=0          per-request deadline budget stamped into every
//                          frame (0 = none); the server answers
//                          kDeadlineExceeded when it lapses, counted and
//                          reported but not treated as an error
//   wait_serving_ms=0      before the run, poll the HEALTH op until the
//                          server reports serving (instead of one ping);
//                          rides out a durable server's recovery window
//   verify=0               acked-write verification: track every PUT in an
//                          AckLedger, and after the run read back every key
//                          with an acknowledged write and check the value
//                          against the ledger. Any violation (an acked
//                          write lost or a value this client never wrote)
//                          prints "ACKED-WRITE LOSS" and forces exit 1.
//                          Keys are partitioned per worker so each key's
//                          writes are sequential and the check is exact.
//   ledger_out=PATH        dump the ledger as JSONL after the run
//                          ("-" = stdout); implies tracking (as verify=1
//                          does), without the readback pass unless verify=1
//
// Prints achieved throughput and per-op latency percentiles. Exits 0 on a
// clean run, 1 when any protocol error, exhausted retry budget, or
// acked-write verification failure occurred.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "kv/client.hpp"
#include "svc/ack_ledger.hpp"
#include "svc/client_conn.hpp"
#include "workload/zipf.hpp"

using namespace chameleon;

namespace {

struct WorkerResult {
  Histogram get_latency{0.0, 1e8, 2000};
  Histogram put_latency{0.0, 1e8, 2000};
  RunningStats get_stats;  ///< exact sum/count/min/max next to the binned view
  RunningStats put_stats;
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t not_found = 0;
  std::uint64_t exhausted = 0;       ///< kv::RetriesExhausted
  std::uint64_t protocol_errors = 0; ///< malformed frames / id mismatches
  std::uint64_t deadline_exceeded = 0; ///< server shed past-deadline requests
};

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string key_for(std::uint64_t rank) {
  return "key-" + std::to_string(rank);
}

/// Make each tracked write's payload unique by stamping a tag into the
/// leading bytes, so value CRCs distinguish writes and the ledger check is
/// not trivially satisfied by identical payloads.
void stamp_value(std::vector<std::uint8_t>& v, std::uint64_t tag) {
  for (std::size_t i = 0; i < v.size() && i < 8; ++i) {
    v[i] = static_cast<std::uint8_t>(tag >> (8 * i));
  }
}

std::uint32_t value_crc(const std::vector<std::uint8_t>& v) {
  return svc::crc32c({v.data(), v.size()});
}

/// Full-fidelity histogram dump: every bucket (zeros included, so offsets
/// are positional) plus the exact moments from the RunningStats twin.
void append_latency_json(std::string& out, const char* op,
                         const Histogram& h, const RunningStats& s) {
  out += "    { \"op\": ";
  json_append_escaped(out, op);
  out += ", \"count\": " + std::to_string(s.count());
  out += ", \"sum_ns\": " + json_number(s.sum());
  out += ", \"min_ns\": " + json_number(s.min());
  out += ", \"max_ns\": " + json_number(s.max());
  out += ", \"mean_ns\": " + json_number(s.mean());
  out += ",\n      \"lo\": " + json_number(h.bin_low(0));
  out += ", \"bin_width\": " + json_number(h.bin_width());
  out += ", \"underflow\": " + std::to_string(h.underflow());
  out += ", \"overflow\": " + std::to_string(h.overflow());
  out += ",\n      \"bins\": [";
  for (std::size_t i = 0; i < h.bin_count(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(h.bin_value(i));
  }
  out += "] }";
}

std::string latency_json(const Histogram& get_h, const RunningStats& get_s,
                         const Histogram& put_h, const RunningStats& put_s,
                         std::uint64_t ops, double elapsed_seconds) {
  std::string out;
  out.reserve(16384);
  out += "{\n  \"schema_version\": 1,\n  \"tool\": \"chameleon_loadgen\",\n";
  out += "  \"ops\": " + std::to_string(ops);
  out += ",\n  \"elapsed_seconds\": " + json_number(elapsed_seconds);
  out += ",\n  \"histograms\": [\n";
  append_latency_json(out, "get", get_h, get_s);
  out += ",\n";
  append_latency_json(out, "put", put_h, put_s);
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Config config;
    config.parse_args(argc, argv);

    const std::string target = config.get_string("target", "127.0.0.1:7421");
    const auto colon = target.rfind(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("target must be HOST:PORT, got: " + target);
    }
    const auto ops = static_cast<std::uint64_t>(
        config.get_int("ops", 100'000));
    const auto concurrency = static_cast<std::size_t>(
        std::max<std::int64_t>(1, config.get_int("concurrency", 4)));
    const auto connections = static_cast<std::size_t>(
        std::max<std::int64_t>(1, config.get_int("connections", 4)));
    const double read_ratio = config.get_double("read_ratio", 0.5);
    const auto keys = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, config.get_int("keys", 10'000)));
    const double theta = config.get_double("zipf_theta", 0.99);
    const auto value_bytes = static_cast<std::size_t>(
        config.get_int("value_bytes", 256));
    const double open_rate = config.get_double("open_rate", 0.0);
    const bool preload = config.get_bool("preload", true);
    const auto seed = static_cast<std::uint64_t>(config.get_int("seed", 42));
    const auto deadline_ms = static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, config.get_int("deadline_ms", 0)));
    const auto wait_serving_ms = config.get_int("wait_serving_ms", 0);
    const bool verify = config.get_bool("verify", false);
    const std::string ledger_out = config.get_string("ledger_out", "");
    // Tracking costs a CRC + map update per PUT; only pay it when asked.
    const bool tracked = verify || !ledger_out.empty();
    const auto retry_attempts = static_cast<std::size_t>(
        std::max<std::int64_t>(1, config.get_int("retry_attempts", 4)));
    const Nanos retry_base_backoff =
        config.get_int("retry_base_backoff_ms", 1) * kMillisecond;
    const auto max_exhausted = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, config.get_int("max_exhausted", 0)));

    svc::ClientConfig client_config;
    client_config.host = target.substr(0, colon);
    client_config.port =
        static_cast<std::uint16_t>(std::stoul(target.substr(colon + 1)));
    client_config.deadline_ms = deadline_ms;
    client_config.retry.max_attempts = retry_attempts;
    client_config.retry.base_backoff = retry_base_backoff;
    svc::ClientPool pool(client_config, connections);

    if (wait_serving_ms > 0) {
      // A durable server listens before recovery finishes; ride that window
      // out by polling HEALTH instead of failing on the first kRetryLater.
      if (!pool.wait_serving(wait_serving_ms * kMillisecond)) {
        throw std::runtime_error(
            "server did not report serving within " +
            std::to_string(wait_serving_ms) + "ms");
      }
    } else {
      pool.ping();  // fail fast when the server is unreachable
    }

    svc::AckLedger ledger;
    std::atomic<std::uint64_t> stamp{1};
    const std::vector<std::uint8_t> value(value_bytes, 0xAB);
    const workload::ZipfGenerator zipf(keys, theta);

    if (preload) {
      std::vector<std::uint8_t> v = value;
      for (std::uint64_t rank = 0; rank < keys; ++rank) {
        std::uint64_t seq = 0;
        if (tracked) {
          stamp_value(v, stamp.fetch_add(1, std::memory_order_relaxed));
          seq = ledger.issued(key_for(rank), value_crc(v));
        }
        const svc::Status s = pool.put(key_for(rank), v);
        if (s != svc::Status::kOk) {
          throw std::runtime_error(std::string("preload PUT failed: ") +
                                   svc::status_name(s));
        }
        if (tracked) ledger.acked(key_for(rank), seq);
      }
    }

    std::vector<WorkerResult> results(concurrency);
    std::vector<std::thread> workers;
    const Nanos start = now_ns();
    for (std::size_t w = 0; w < concurrency; ++w) {
      workers.emplace_back([&, w] {
        WorkerResult& r = results[w];
        Xoshiro256 rng(seed + w * 0x9E3779B97F4A7C15ULL);
        const std::uint64_t quota =
            ops / concurrency + (w < ops % concurrency ? 1 : 0);
        // Open loop: each worker owns every concurrency-th tick of the
        // aggregate schedule.
        const double per_worker_rate =
            open_rate > 0.0 ? open_rate / static_cast<double>(concurrency)
                            : 0.0;
        const Nanos interval =
            per_worker_rate > 0.0
                ? static_cast<Nanos>(1e9 / per_worker_rate)
                : 0;
        Nanos next_fire = now_ns();
        std::vector<std::uint8_t> got;
        std::vector<std::uint8_t> v = value;
        for (std::uint64_t i = 0; i < quota; ++i) {
          if (interval > 0) {
            next_fire += interval;
            const Nanos wait = next_fire - now_ns();
            if (wait > 0) {
              std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
            }
          }
          // Tracked runs partition the keyspace per worker (rank maps to
          // rank*concurrency + w, disjoint across workers), so each key's
          // writes are sequential and the ledger check is exact.
          const std::uint64_t rank = zipf.next(rng);
          const std::string key =
              key_for(tracked ? rank * concurrency + w : rank);
          const bool is_get = rng.next_bool(read_ratio);
          const Nanos t0 = now_ns();
          try {
            if (is_get) {
              const svc::Status s = pool.get(key, got);
              ++r.gets;
              if (s == svc::Status::kNotFound) ++r.not_found;
              if (s == svc::Status::kDeadlineExceeded) ++r.deadline_exceeded;
            } else {
              std::uint64_t seq = 0;
              if (tracked) {
                stamp_value(v, stamp.fetch_add(1, std::memory_order_relaxed));
                seq = ledger.issued(key, value_crc(v));
              }
              const svc::Status s = pool.put(key, v);
              ++r.puts;
              if (s == svc::Status::kOk) {
                if (tracked) ledger.acked(key, seq);
              } else if (s == svc::Status::kDeadlineExceeded) {
                // Not acked: the entry stays in doubt. (An earlier attempt
                // of the same operation may have been applied before its
                // connection died, so it is NOT known-unapplied.)
                ++r.deadline_exceeded;
              }
            }
            const auto latency = static_cast<double>(now_ns() - t0);
            (is_get ? r.get_latency : r.put_latency).add(latency);
            (is_get ? r.get_stats : r.put_stats).add(latency);
            ++r.ops;
          } catch (const kv::RetriesExhausted&) {
            ++r.exhausted;
          } catch (const std::exception&) {
            ++r.protocol_errors;
          }
        }
      });
    }
    for (auto& t : workers) t.join();
    const Nanos elapsed = now_ns() - start;

    WorkerResult total;
    for (const WorkerResult& r : results) {
      total.get_latency.merge(r.get_latency);
      total.put_latency.merge(r.put_latency);
      total.get_stats.merge(r.get_stats);
      total.put_stats.merge(r.put_stats);
      total.ops += r.ops;
      total.gets += r.gets;
      total.puts += r.puts;
      total.not_found += r.not_found;
      total.exhausted += r.exhausted;
      total.protocol_errors += r.protocol_errors;
      total.deadline_exceeded += r.deadline_exceeded;
    }

    const double secs = static_cast<double>(elapsed) / 1e9;
    std::printf("loadgen: %llu ops in %.2fs (%.0f ops/s), %llu gets "
                "(%llu not-found), %llu puts\n",
                static_cast<unsigned long long>(total.ops), secs,
                secs > 0 ? static_cast<double>(total.ops) / secs : 0.0,
                static_cast<unsigned long long>(total.gets),
                static_cast<unsigned long long>(total.not_found),
                static_cast<unsigned long long>(total.puts));
    const auto report = [](const char* label, const Histogram& h) {
      if (h.count() == 0) return;
      std::printf("  %s latency: p50 %.1fus  p90 %.1fus  p99 %.1fus\n", label,
                  h.percentile(50) / 1000.0, h.percentile(90) / 1000.0,
                  h.percentile(99) / 1000.0);
    };
    report("get", total.get_latency);
    report("put", total.put_latency);
    std::printf("  retries: %llu, reconnects: %llu, exhausted: %llu, "
                "protocol errors: %llu, deadline exceeded: %llu\n",
                static_cast<unsigned long long>(pool.retries_total()),
                static_cast<unsigned long long>(pool.reconnects_total()),
                static_cast<unsigned long long>(total.exhausted),
                static_cast<unsigned long long>(total.protocol_errors),
                static_cast<unsigned long long>(total.deadline_exceeded));

    // Acked-write verification: every key the server acknowledged a PUT for
    // must read back as that write (or a later still-in-doubt one). This is
    // the client side of the durability contract; a violation after a chaos
    // kill/recovery cycle is acknowledged-write loss.
    std::uint64_t verify_violations = 0;
    if (verify) {
      std::vector<std::uint8_t> got;
      const std::vector<std::string> acked = ledger.acked_keys();
      for (const std::string& key : acked) {
        bool found = false;
        try {
          const svc::Status s = pool.get(key, got);
          if (s == svc::Status::kOk) {
            found = true;
          } else if (s != svc::Status::kNotFound) {
            ++verify_violations;
            std::fprintf(stderr, "verify: key %s unreadable: %s\n",
                         key.c_str(), svc::status_name(s));
            continue;
          }
        } catch (const std::exception& error) {
          ++verify_violations;
          std::fprintf(stderr, "verify: key %s unreadable: %s\n", key.c_str(),
                       error.what());
          continue;
        }
        const svc::AckLedger::CheckResult res =
            ledger.check(key, found, found ? value_crc(got) : 0);
        if (res.verdict != svc::AckLedger::Verdict::kOk) {
          ++verify_violations;
          std::fprintf(stderr, "ACKED-WRITE LOSS: key %s: %s\n", key.c_str(),
                       res.detail.c_str());
        }
      }
      std::printf("verify: %llu acked keys checked (%llu puts issued, %llu "
                  "acked), %llu violations\n",
                  static_cast<unsigned long long>(acked.size()),
                  static_cast<unsigned long long>(ledger.issued_total()),
                  static_cast<unsigned long long>(ledger.acked_total()),
                  static_cast<unsigned long long>(verify_violations));
    }

    if (!ledger_out.empty()) {
      if (ledger_out == "-") {
        ledger.write_jsonl(std::cout);
      } else {
        std::ofstream out(ledger_out);
        if (!out) {
          std::fprintf(stderr, "chameleon_loadgen: cannot open %s\n",
                       ledger_out.c_str());
          return 1;
        }
        ledger.write_jsonl(out);
      }
    }

    if (config.get_bool("digest", false)) {
      std::printf("digest: %s\n", pool.digest().c_str());
    }

    if (config.get_bool("health", false)) {
      std::printf("health: %s\n", pool.health_json().c_str());
    }

    const std::string latency_out = config.get_string("latency_out", "");
    if (!latency_out.empty()) {
      const std::string text =
          latency_json(total.get_latency, total.get_stats, total.put_latency,
                       total.put_stats, total.ops, secs);
      if (latency_out == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
      } else {
        std::ofstream out(latency_out);
        out << text;
      }
    }

    const std::string metrics_out = config.get_string("metrics_out", "");
    if (!metrics_out.empty()) {
      const std::string text = pool.metrics_text();
      if (metrics_out == "-") {
        std::fwrite(text.data(), 1, text.size(), stdout);
      } else {
        std::ofstream out(metrics_out);
        out << text;
      }
    }

    return (total.protocol_errors > 0 || total.exhausted > max_exhausted ||
            verify_violations > 0)
               ? 1
               : 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "chameleon_loadgen: %s\n", error.what());
    return 1;
  }
}
