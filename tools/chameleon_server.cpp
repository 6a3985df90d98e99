// chameleon_server — serve a simulated Chameleon flash cluster over TCP
// using the svc wire protocol (docs/SERVICE.md).
//
//   chameleon_server --listen=HOST:PORT --workers=N [--config=FILE] [key=val]
//
// Flags are key=value pairs; a leading "--" is accepted and stripped, so both
// `--workers=4` and `workers=4` work. `--config=FILE` loads key=value lines
// (# comments allowed) first; command-line flags override the file. A flag
// the run never reads (misspelt, retired, or unused in this mode) gets one
// warning on stderr and is otherwise ignored.
//
//   listen=127.0.0.1:7421   host:port to bind (port 0 = ephemeral)
//   workers=2               shard worker threads under the store
//                           coordinator
//   reactors=1              IO threads; >1 binds one SO_REUSEPORT accept
//                           socket per reactor
//   drain_batch=64          ops between executor drain fences
//   servers=8               simulated flash servers behind the store
//   capacity_mb=256         target dataset capacity across the cluster
//   max_inflight=256        global admission window
//   session_credits=64      per-connection pipeline credits
//   max_payload=4194304     largest accepted frame payload (bytes)
//   idle_timeout_ms=60000   reap sessions idle this long (0 = never)
//   drain_timeout_ms=5000   graceful-drain budget on SIGINT/SIGTERM
//   epoch_every_ops=10000   advance one balancing epoch every N data ops
//   metrics=1               enable the metrics registry (METRICS op)
//   port_file=PATH          write the bound port (for ephemeral-port CI)
//   node_id=0               this node's id on a chameleon_router's hash
//                           ring, echoed in PEER_HEALTH and WEAR_REPORT
//                           (docs/DISTRIBUTED.md)
//   data_dir=PATH           durability: WAL + checkpoints live here; on boot
//                           the newest checkpoint is restored and the WAL
//                           tail replayed (docs/DURABILITY.md)
//   fsync=always            WAL fsync policy: always | interval | none
//   group_commit=1          fsync=always: batch concurrent mutations into
//                           shared group fsyncs; acks release only once the
//                           covering fsync lands (docs/DURABILITY.md)
//   checkpoint_every_epochs=1  snapshot cadence (1 = every epoch barrier)
//   slow_request_ms=0       record a kSvcSlowRequest trace event (full
//                           per-stage breakdown) for data ops slower than
//                           this end-to-end (0 = off)
//   slow_sample_every=0     also capture a deterministic 1-in-N sample of
//                           all data ops, keyed on (seed, request_id)
//   trace_out=PATH          dump the trace ring as JSONL after the drain
//                           ("-" = stdout); enables the trace sink. Either
//                           slow knob also enables it, so captures count
//                           even without a dump path.
//   fault_drop_rate=0       P(drop a connection per frame)  [chaos hooks]
//   fault_stall_rate=0      P(stall a response per frame)
//   fault_stall_ms=20       stall duration
//   seed=0x5eed             fault RNG seed
//
// SIGINT/SIGTERM trigger the graceful drain: stop accepting, finish
// in-flight requests, flush responses, then exit 0.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <csignal>

#include <memory>

#include "common/config.hpp"
#include "core/chameleon.hpp"
#include "durability/manager.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/server.hpp"

using namespace chameleon;

namespace {

void load_config_file(Config& config, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file: " + path);
  std::string line;
  while (std::getline(in, line)) {
    const auto start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const auto eq = line.find('=', start);
    if (eq == std::string::npos) {
      throw std::runtime_error("config line is not key=value: " + line);
    }
    auto end = line.find_last_not_of(" \t\r");
    config.set(line.substr(start, eq - start),
               line.substr(eq + 1, end - eq));
  }
}

/// The config=FILE lines, if given, with the command-line flags over them.
/// The config key itself is not kept, so it never reads as an ignored flag.
Config parse_flags(int argc, char** argv) {
  Config flags;
  flags.parse_args(argc, argv);
  Config config;
  const auto& entries = flags.entries();
  if (const auto file = entries.find("config"); file != entries.end()) {
    load_config_file(config, file->second);
  }
  for (const auto& [key, value] : entries) {
    if (key != "config") config.set(key, value);
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config config = parse_flags(argc, argv);

    const std::string listen = config.get_string("listen", "127.0.0.1:7421");
    const auto colon = listen.rfind(':');
    if (colon == std::string::npos) {
      throw std::runtime_error("listen must be HOST:PORT, got: " + listen);
    }

    if (config.get_bool("metrics", true)) obs::set_enabled(true);

    // Slow-request capture lands in the trace ring; turn the sink on when
    // either capture knob (or an explicit dump path) asks for it, else the
    // events would be silently discarded.
    const std::string trace_out = config.get_string("trace_out", "");
    if (!trace_out.empty() || config.get_int("slow_request_ms", 0) > 0 ||
        config.get_int("slow_sample_every", 0) > 0) {
      obs::trace().set_enabled(true);
    }

    // The simulated cluster behind the service.
    const auto servers =
        static_cast<std::uint32_t>(config.get_int("servers", 8));
    const auto capacity_mb = config.get_int("capacity_mb", 256);
    const auto per_server = static_cast<std::uint64_t>(capacity_mb) * 1024 *
                            1024 * 3 / 2 / servers;
    core::ChameleonConfig sys_config;
    sys_config.servers = servers;
    sys_config.ssd = flashsim::SsdConfig::sized_for(per_server, 0.7);
    core::Chameleon system(sys_config);

    const std::string data_dir = config.get_string("data_dir", "");
    durability::DurabilityConfig dur_config;
    if (!data_dir.empty()) {
      dur_config.dir = data_dir;
      dur_config.fsync = durability::fsync_policy_from_name(
          config.get_string("fsync", "always"));
      dur_config.checkpoint_every_epochs = static_cast<std::uint32_t>(
          config.get_int("checkpoint_every_epochs", 1));
      dur_config.group_commit = config.get_bool("group_commit", true);
    }

    svc::ServerConfig server_config;
    server_config.host = listen.substr(0, colon);
    server_config.port = static_cast<std::uint16_t>(
        std::stoul(listen.substr(colon + 1)));
    server_config.workers =
        static_cast<std::uint32_t>(config.get_int("workers", 2));
    server_config.reactors =
        static_cast<std::uint32_t>(config.get_int("reactors", 1));
    server_config.drain_batch =
        static_cast<std::uint32_t>(config.get_int("drain_batch", 64));
    server_config.admission.max_inflight =
        static_cast<std::size_t>(config.get_int("max_inflight", 256));
    server_config.admission.session_credits =
        static_cast<std::size_t>(config.get_int("session_credits", 64));
    server_config.max_payload = static_cast<std::uint32_t>(
        config.get_int("max_payload", svc::kDefaultMaxPayload));
    server_config.idle_timeout =
        config.get_int("idle_timeout_ms", 60'000) * kMillisecond;
    server_config.drain_timeout =
        config.get_int("drain_timeout_ms", 5'000) * kMillisecond;
    server_config.epoch_every_ops =
        static_cast<std::uint64_t>(config.get_int("epoch_every_ops", 10'000));
    server_config.slow.threshold =
        config.get_int("slow_request_ms", 0) * kMillisecond;
    server_config.slow.sample_every =
        static_cast<std::uint64_t>(config.get_int("slow_sample_every", 0));
    server_config.slow.seed =
        static_cast<std::uint64_t>(config.get_int("seed", 0x5eed));
    server_config.faults.conn_drop_rate =
        config.get_double("fault_drop_rate", 0.0);
    server_config.faults.stall_rate =
        config.get_double("fault_stall_rate", 0.0);
    server_config.faults.stall =
        config.get_int("fault_stall_ms", 20) * kMillisecond;
    server_config.faults.seed =
        static_cast<std::uint64_t>(config.get_int("seed", 0x5eed));
    server_config.node_id =
        static_cast<std::uint32_t>(config.get_int("node_id", 0));

    // Durable boots listen *before* recovery: the server comes up in the
    // kRecovering state, sheds data ops with kRetryLater, and answers HEALTH
    // inline, so restart downtime is probe-able instead of connection-refused
    // darkness. Once the WAL replay finishes, set_serving() opens the gates.
    server_config.start_recovering = !data_dir.empty();

    const std::string port_file = config.get_string("port_file", "");
    // Every flag has been read by now; whatever is left did nothing.
    for (const std::string& key : config.unread_keys()) {
      std::fprintf(stderr, "chameleon_server: warning: ignored flag %s=%s\n",
                   key.c_str(), config.entries().at(key).c_str());
    }

    svc::Server server(system, server_config);
    server.start();
    std::printf("chameleon_server listening on %s:%u (%u workers, %u flash "
                "servers)%s\n",
                server.host().c_str(), server.port(), server_config.workers,
                servers,
                server_config.start_recovering ? ", recovering" : "");
    std::fflush(stdout);

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << "\n";
    }

    svc::drain_on_signals(&server, {SIGINT, SIGTERM});

    // Durability: recover from data_dir (if given), then journal every
    // mutation from here on. Data ops stay shed until this completes.
    std::unique_ptr<durability::Manager> durable;
    if (!data_dir.empty()) {
      durable = std::make_unique<durability::Manager>(system, dur_config);
      const durability::RecoveryReport report = durable->open();
      std::printf(
          "recovery: %s checkpoint seq=%llu epoch=%u, replayed %llu wal "
          "records (%llu segments)%s, digest=%016llx, %.3fs\n",
          report.checkpoint_loaded ? "loaded" : "no",
          static_cast<unsigned long long>(report.checkpoint_seq),
          report.checkpoint_epoch,
          static_cast<unsigned long long>(report.replayed_records),
          static_cast<unsigned long long>(report.segments_scanned),
          report.torn_tail ? ", torn tail truncated" : "",
          static_cast<unsigned long long>(report.digest),
          report.duration_seconds);
      std::fflush(stdout);

      svc::RecoveryInfo info;
      info.recovered = report.recovered;
      info.recoveries_total = report.recovered ? 1 : 0;
      info.replayed_records = report.replayed_records;
      info.checkpoint_seq = report.checkpoint_seq;
      info.last_recovery_unix_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      info.last_recovery_seconds = report.duration_seconds;
      server.set_recovery_info(info);
      // Group commit (fsync=always): acks for journaled mutations release
      // only once the committer's covering fsync lands. Installed before
      // set_serving() so no data op can race past ungated.
      if (durable->group_commit_active()) {
        server.set_group_commit(durable->group_commit());
      }
      server.set_serving();
      std::printf("serving\n");
      std::fflush(stdout);
    }
    server.wait();
    // The durability manager (and its group-commit engine) is destroyed when
    // main returns — after the server object. Drop the server's pointer now
    // that the serving phase is over so the destructor's second wait() holds
    // no stale reference.
    server.set_group_commit(nullptr);
    svc::drain_on_signals(nullptr, {SIGINT, SIGTERM});

    const svc::ServerStats stats = server.stats();
    std::printf("drained %s: %llu requests, %llu responses, %llu shed, "
                "%llu protocol errors, %llu slow-request captures\n",
                stats.drained_clean ? "clean" : "with deadline",
                static_cast<unsigned long long>(stats.requests_total),
                static_cast<unsigned long long>(stats.responses_total),
                static_cast<unsigned long long>(stats.shed_total),
                static_cast<unsigned long long>(stats.protocol_errors_total),
                static_cast<unsigned long long>(stats.slow_requests_total));
    if (!trace_out.empty()) {
      if (trace_out == "-") {
        obs::trace().write_jsonl(std::cout);
      } else {
        std::ofstream out(trace_out);
        if (!out) {
          std::fprintf(stderr, "chameleon_server: cannot open %s\n",
                       trace_out.c_str());
          return 1;
        }
        obs::trace().write_jsonl(out);
      }
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "chameleon_server: %s\n", error.what());
    return 1;
  }
}
