// chameleon_chaosd — crash-recovery chaos supervisor (docs/FAULT_MODEL.md).
//
// Runs durable chameleon_servers under a seeded kill schedule while a
// loadgen child hammers them over real TCP, and verifies the whole-system
// durability contract end to end. One kill loop serves two topologies:
// `mode=single` (the default) is one server that the loadgen targets
// directly; `mode=dist` is N data nodes behind a chameleon_router that the
// loadgen targets (docs/DISTRIBUTED.md).
//
//   1. boot the servers (ephemeral ports, durable data_dirs) and, in dist
//      mode, the router; wait until the target serves
//   2. start chameleon_loadgen with verify=1 (acked-write ledger) pointed at
//      the target
//   3. at each scheduled point, SIGKILL a server mid-load, restart it, and
//      poll HEALTH until recovery finishes — measuring the downtime window
//      instead of sleeping a guessed duration. Single mode restarts its
//      server on the SAME port. Dist mode draws the victim node from the
//      seeded RNG and restarts it on a fresh ephemeral port (the router
//      reads its port file again); recovery also means the router's live
//      set re-absorbed it
//   4. after the load drains: quiesced digest check — DIGEST, kill -9,
//      restart, DIGEST again; the two fingerprints must be identical (in
//      dist mode, the router's AGGREGATE digest across one more node crash)
//   5. write a JSON report and exit nonzero on any violation: acked-write
//      loss (loadgen exit), digest mismatch, a kill that missed live load,
//      a recovery that never became serving, or a supervised process that
//      died on its own
//
// While the load runs, chaosd also watches every process it did not kill
// itself. One that exits unprompted (a crash) fails the run at once: the
// loadgen is killed rather than left retrying against a dead port, and the
// report's "unexpected_exit" names the process and its exit signal.
//
// The kill schedule is a fault::FaultSchedule of kKill9 events generated
// from `seed` (epochs map to wall milliseconds via epoch_ms), so a failing
// run is reproducible by re-running with the same seed; the serialized
// schedule is embedded in the report.
//
// Flags (leading "--" optional, key=value):
//   server_bin=PATH        chameleon_server binary (default: next to chaosd)
//   loadgen_bin=PATH       chameleon_loadgen binary (default: next to chaosd)
//   mode=single            single | dist
//   dir=PATH               scratch dir: data_dir, port file, ledger, logs
//                          (default: ./chaosd-run, dist: ./chaosd-dist-run)
//   host=127.0.0.1         listen host
//   kills=3                kill -9s to deliver while the load runs
//   seed=1337              kill-schedule + workload seed
//   horizon_ms=3000        kills are spread over (0, horizon_ms]
//   epoch_ms=50            FaultSchedule epoch -> wall ms scale
//   ops=6000               loadgen operations
//   open_rate=2000         loadgen target ops/sec (paces the run so the
//                          schedule lands under live load; 0 = closed loop)
//   keys=500               loadgen distinct keys
//   concurrency=4          loadgen worker threads
//   value_bytes=256        loadgen PUT payload size
//   deadline_ms=0          per-request deadline the loadgen stamps
//   max_exhausted=0        client ops allowed to exhaust retries (the
//                          bounded error window; loss is never allowed)
//   servers=8              simulated flash servers behind the store
//   capacity_mb=64         simulated cluster capacity
//   workers=2              server worker threads
//   recovery_timeout_ms=30000  max wait for a restarted server to serve
//   report_out=PATH        JSON report ("-" = stdout, the default)
//
// Dist mode only:
//   nodes=3                data nodes
//   router_bin=PATH        chameleon_router binary (default: next to chaosd)
//   route_mode=stripe      router data placement: replicate | stripe
//   replicas=2 ec_k=2 ec_m=1  placement geometry (see chameleon_router)
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/fault_schedule.hpp"
#include "svc/client_conn.hpp"

using namespace chameleon;

namespace {

std::string dirname_of(const std::string& path) {
  const auto slash = path.rfind('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// fork/exec a child with stdout+stderr appended to `log_path`.
pid_t spawn(const std::vector<std::string>& args, const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("chaosd: fork failed");
  if (pid == 0) {
    if (!log_path.empty()) {
      std::FILE* log = std::freopen(log_path.c_str(), "a", stdout);
      if (log != nullptr) ::dup2(::fileno(stdout), ::fileno(stderr));
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::perror("chaosd: execv");
    ::_exit(127);
  }
  return pid;
}

/// Non-blocking liveness probe; fills `status` when the child has exited.
bool child_alive(pid_t pid, int* status) {
  const pid_t r = ::waitpid(pid, status, WNOHANG);
  return r == 0;
}

/// A waitpid status as one exit code: the process's own, or 128 + signal.
int exit_code_of(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int wait_exit(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
  return exit_code_of(status);
}

/// A supervised process that exited although chaosd had not killed it.
struct UnexpectedExit {
  std::string process;  ///< "server", "router" or "node<id>"
  int exit_code = 0;    ///< its exit status, when it exited by itself
  int signal = 0;       ///< the signal that ended it (SIGSEGV, SIGABRT, ...)
};

/// Supervised processes by name, with the pid each runs under now.
using Watched = std::vector<std::pair<std::string, pid_t>>;

/// The first process in `watched` that has exited. WNOWAIT leaves it
/// waitable, so teardown's wait_exit() still reaps it.
std::optional<UnexpectedExit> first_exit(const Watched& watched) {
  for (const auto& [name, pid] : watched) {
    siginfo_t info{};
    if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                 WEXITED | WNOHANG | WNOWAIT) != 0 ||
        info.si_pid == 0) {
      continue;
    }
    UnexpectedExit exit;
    exit.process = name;
    if (info.si_code == CLD_EXITED) {
      exit.exit_code = info.si_status;
    } else {
      exit.signal = info.si_status;
    }
    return exit;
  }
  return std::nullopt;
}

/// Wait for the loadgen to finish while watching the processes it talks
/// to. When one of them has died (`died` set before the call, or found
/// here), the loadgen would only retry against a dead port: kill it and
/// return at once. Returns the loadgen's exit code (128 + signal if killed).
int wait_loadgen(pid_t loadgen_pid, const Watched& watched,
                 std::optional<UnexpectedExit>& died) {
  for (;;) {
    int status = 0;
    if (!child_alive(loadgen_pid, &status)) return exit_code_of(status);
    if (!died) died = first_exit(watched);
    if (died) {
      ::kill(loadgen_pid, SIGKILL);
      return wait_exit(loadgen_pid);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// The summary line's note on an unexpected exit ("" when there was none).
std::string death_note(const std::optional<UnexpectedExit>& died) {
  if (!died) return "";
  return ", " + died->process + " died (exit " +
         std::to_string(died->exit_code) + ", signal " +
         std::to_string(died->signal) + ")";
}

/// Poll `path` until it holds a parseable port number.
std::uint16_t await_port_file(const std::string& path, Nanos timeout) {
  const Nanos deadline = now_ns() + timeout;
  for (;;) {
    std::ifstream in(path);
    long port = 0;
    if (in && (in >> port) && port > 0 && port < 65536) {
      return static_cast<std::uint16_t>(port);
    }
    if (now_ns() >= deadline) {
      throw std::runtime_error("chaosd: server never wrote " + path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

struct KillCycle {
  std::uint64_t scheduled_ms = 0;   ///< offset into the run
  std::uint64_t downtime_ms = 0;    ///< SIGKILL -> serving again
  bool under_load = true;           ///< loadgen was still running at the kill
  bool recovered = false;           ///< restart reached the serving state
  std::string health;               ///< post-recovery HEALTH JSON
  std::uint32_t victim = 0;         ///< dist mode: killed node id
};

/// Build the seeded kill schedule: one kKill9 per equal slice of the
/// horizon, jittered inside the slice so kills cannot bunch up.
fault::FaultSchedule make_schedule(std::uint64_t seed, std::size_t kills,
                                   std::uint64_t horizon_ms,
                                   std::uint64_t epoch_ms) {
  fault::FaultSchedule schedule;
  schedule.seed = seed;
  Xoshiro256 rng(seed);
  const std::uint64_t horizon_epochs =
      std::max<std::uint64_t>(kills + 1, horizon_ms / epoch_ms);
  for (std::size_t i = 0; i < kills; ++i) {
    const std::uint64_t lo = 1 + i * horizon_epochs / kills;
    const std::uint64_t hi =
        std::max<std::uint64_t>(lo + 1, (i + 1) * horizon_epochs / kills);
    fault::FaultEvent event;
    event.at = static_cast<Epoch>(lo + rng.next() % (hi - lo));
    event.kind = fault::FaultKind::kKill9;
    schedule.events.push_back(event);
  }
  return schedule;
}

/// Poll DIGEST until it answers. A router's aggregate DIGEST returns
/// retry_later while any node is still replaying its WAL after a restart,
/// and the probe pool's own retry budget is far shorter than a recovery, so
/// ride it out here with a deadline instead. Empty string on timeout.
std::string digest_with_retry(svc::ClientPool& probe, Nanos timeout) {
  const Nanos deadline = now_ns() + timeout;
  while (now_ns() < deadline) {
    try {
      return probe.digest();
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return std::string();
}

/// Poll the router's HEALTH until its live count reaches `want`.
bool await_router_live(svc::ClientPool& probe, std::size_t want,
                       Nanos timeout) {
  const std::string token = "\"live\":" + std::to_string(want) + ",";
  const Nanos deadline = now_ns() + timeout;
  while (now_ns() < deadline) {
    try {
      if (probe.health_json().find(token) != std::string::npos) return true;
    } catch (const std::exception&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

std::string render_report(const std::string& mode, std::uint64_t seed,
                          bool ok, int loadgen_status, std::size_t kills,
                          std::size_t kills_under_load,
                          std::uint64_t max_downtime_ms,
                          const std::string& digest_before,
                          const std::string& digest_after, bool digest_match,
                          const std::string& schedule_text,
                          const std::vector<KillCycle>& cycles,
                          const std::optional<UnexpectedExit>& died) {
  std::string report;
  report.reserve(2048);
  report += "{\n  \"schema_version\": 1,\n  \"tool\": \"chameleon_chaosd\"";
  report += ",\n  \"mode\": \"" + mode + "\"";
  report += ",\n  \"seed\": " + std::to_string(seed);
  report += ",\n  \"ok\": " + std::string(ok ? "true" : "false");
  report += ",\n  \"loadgen_exit\": " + std::to_string(loadgen_status);
  report += ",\n  \"kills_planned\": " + std::to_string(kills);
  report += ",\n  \"kills_delivered\": " + std::to_string(cycles.size());
  report += ",\n  \"kills_under_load\": " + std::to_string(kills_under_load);
  report += ",\n  \"max_downtime_ms\": " + std::to_string(max_downtime_ms);
  report += ",\n  \"digest_before\": ";
  json_append_escaped(report, digest_before.c_str());
  report += ",\n  \"digest_after\": ";
  json_append_escaped(report, digest_after.c_str());
  report += ",\n  \"digest_match\": ";
  report += digest_match ? "true" : "false";
  report += ",\n  \"unexpected_exit\": ";
  if (died) {
    report += "{ \"process\": ";
    json_append_escaped(report, died->process.c_str());
    report += ", \"exit_code\": " + std::to_string(died->exit_code);
    report += ", \"signal\": " + std::to_string(died->signal) + " }";
  } else {
    report += "null";
  }
  report += ",\n  \"schedule\": ";
  json_append_escaped(report, schedule_text.c_str());
  report += ",\n  \"cycles\": [";
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    const KillCycle& c = cycles[i];
    if (i > 0) report += ',';
    report += "\n    { \"scheduled_ms\": " + std::to_string(c.scheduled_ms);
    report += ", \"victim\": " + std::to_string(c.victim);
    report += ", \"downtime_ms\": " + std::to_string(c.downtime_ms);
    report += ", \"under_load\": ";
    report += c.under_load ? "true" : "false";
    report += ", \"recovered\": ";
    report += c.recovered ? "true" : "false";
    report += ", \"health\": ";
    report += c.health.empty() ? "null" : c.health;
    report += " }";
  }
  report += "\n  ]\n}\n";
  return report;
}

int write_report(const std::string& report, const std::string& report_out) {
  if (report_out == "-") {
    std::fwrite(report.data(), 1, report.size(), stdout);
    return 0;
  }
  std::ofstream out(report_out);
  if (!out) {
    std::fprintf(stderr, "chaosd: cannot open %s\n", report_out.c_str());
    return 1;
  }
  out << report;
  return 0;
}

/// One supervised chameleon_server: the single-mode server, or one data
/// node behind the router in dist mode.
struct Server {
  std::string name;           ///< "server" or "node<id>"
  std::uint32_t node_id = 0;  ///< 0 for the single-mode server
  std::string data_dir;
  std::string port_file;
  std::string log;
  std::uint16_t port = 0;  ///< where it listens now; 0 before the first boot
  pid_t pid = -1;
};

svc::ClientConfig client_config(const std::string& host, std::uint16_t port) {
  svc::ClientConfig config;
  config.host = host;
  config.port = port;
  return config;
}

/// One kill loop over either topology. Single mode: one durable server that
/// the loadgen targets directly; it restarts on the same port. Dist mode:
/// `nodes` durable data nodes behind a chameleon_router that the loadgen
/// targets; each victim is drawn from the seeded RNG, restarts on a fresh
/// ephemeral port, and must be re-absorbed into the router's live set.
int run(const Config& config, const std::string& self_dir) {
  const bool dist = config.get_string("mode", "single") == "dist";
  const std::string server_bin =
      config.get_string("server_bin", self_dir + "/chameleon_server");
  const std::string loadgen_bin =
      config.get_string("loadgen_bin", self_dir + "/chameleon_loadgen");
  const std::string dir =
      config.get_string("dir", dist ? "./chaosd-dist-run" : "./chaosd-run");
  const std::string host = config.get_string("host", "127.0.0.1");
  const auto kills = static_cast<std::size_t>(
      std::max<std::int64_t>(1, config.get_int("kills", 3)));
  const auto seed = static_cast<std::uint64_t>(config.get_int("seed", 1337));
  const auto horizon_ms = static_cast<std::uint64_t>(
      std::max<std::int64_t>(100, config.get_int("horizon_ms", 3000)));
  const auto epoch_ms = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, config.get_int("epoch_ms", 50)));
  const Nanos recovery_timeout =
      config.get_int("recovery_timeout_ms", 30'000) * kMillisecond;
  const std::string report_out = config.get_string("report_out", "-");

  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    throw std::runtime_error("chaosd: cannot create dir " + dir);
  }
  std::vector<Server> servers;
  if (dist) {
    const auto node_count = static_cast<std::size_t>(
        std::max<std::int64_t>(2, config.get_int("nodes", 3)));
    for (std::size_t i = 0; i < node_count; ++i) {
      const std::string n = std::to_string(i + 1);
      servers.push_back({"node" + n, static_cast<std::uint32_t>(i + 1),
                         dir + "/node" + n + "-data",
                         dir + "/node" + n + "-port.txt",
                         dir + "/node" + n + ".log"});
    }
  } else {
    servers.push_back({"server", 0, dir + "/data", dir + "/port.txt",
                       dir + "/server.log"});
  }
  const std::string loadgen_log = dir + "/loadgen.log";
  const std::string ledger_path = dir + "/ledger.jsonl";

  // Single mode pins the port its first boot got; a dist node takes a fresh
  // ephemeral port at every boot. The old port file goes first, so a port
  // read back is the new process's.
  const auto boot = [&](Server& server) {
    ::unlink(server.port_file.c_str());
    std::vector<std::string> args = {
        server_bin,
        "listen=" + host + ":" + std::to_string(dist ? 0 : server.port),
        "port_file=" + server.port_file,
        "data_dir=" + server.data_dir,
    };
    if (dist) args.push_back("node_id=" + std::to_string(server.node_id));
    args.push_back("workers=" + config.get_string("workers", "2"));
    args.push_back("servers=" + config.get_string("servers", "8"));
    args.push_back("capacity_mb=" + config.get_string("capacity_mb", "64"));
    server.pid = spawn(args, server.log);
  };
  for (Server& server : servers) boot(server);
  for (Server& server : servers) {
    server.port = await_port_file(server.port_file, 10 * kSecond);
  }

  // Dist mode's router finds each node through an id@host:@/port/file spec,
  // so a node restarted on a fresh port needs no reconfiguration.
  pid_t router_pid = -1;
  std::uint16_t target_port = servers.front().port;
  if (dist) {
    const std::string router_port_file = dir + "/router-port.txt";
    ::unlink(router_port_file.c_str());
    std::string nodes_flag;
    for (const Server& server : servers) {
      if (!nodes_flag.empty()) nodes_flag += ',';
      nodes_flag += std::to_string(server.node_id) + "@" + host + ":@" +
                    server.port_file;
    }
    const std::vector<std::string> router_args = {
        config.get_string("router_bin", self_dir + "/chameleon_router"),
        "listen=" + host + ":0",
        "port_file=" + router_port_file,
        "nodes=" + nodes_flag,
        "mode=" + config.get_string("route_mode", "stripe"),
        "replicas=" + config.get_string("replicas", "2"),
        "ec_k=" + config.get_string("ec_k", "2"),
        "ec_m=" + config.get_string("ec_m", "1"),
        "heartbeat_ms=25",
        "wear_poll_ms=200",
    };
    router_pid = spawn(router_args, dir + "/router.log");
    target_port = await_port_file(router_port_file, 10 * kSecond);
  }

  // HEALTH and DIGEST of what the loadgen targets: the server, or the router.
  svc::ClientPool probe(client_config(host, target_port), 1);
  // In dist mode, recovery also means the router's live set is whole again.
  const auto all_live = [&] {
    return !dist || await_router_live(probe, servers.size(), recovery_timeout);
  };
  if (!probe.wait_serving(recovery_timeout) || !all_live()) {
    throw std::runtime_error(dist ? "chaosd: router never saw the full live set"
                                  : "chaosd: server never became serving");
  }

  // The kill schedule: kKill9 events at seeded epochs over the horizon.
  // Serialized into the report so a failure reproduces from the seed.
  const fault::FaultSchedule schedule =
      make_schedule(seed, kills, horizon_ms, epoch_ms);
  Xoshiro256 victim_rng(seed ^ 0xd157d157);
  const auto next_victim = [&]() -> Server& {
    if (!dist) return servers.front();
    return servers[static_cast<std::size_t>(victim_rng.next() %
                                            servers.size())];
  };
  // kill -9 and restart; true once the victim itself serves again.
  const auto kill_and_restart = [&](Server& victim) {
    ::kill(victim.pid, SIGKILL);
    wait_exit(victim.pid);
    boot(victim);
    // The single-mode victim is the target on its pinned port; waiting on
    // the target's probe also replaces the connection the kill broke.
    if (!dist) return probe.wait_serving(recovery_timeout);
    victim.port = await_port_file(victim.port_file, 10 * kSecond);
    svc::ClientPool node_probe(client_config(host, victim.port), 1);
    return node_probe.wait_serving(recovery_timeout);
  };

  // The load: acked-write ledger + verification ON, generous retry budget
  // so clients ride out each restart, bounded error window enforced by
  // max_exhausted inside loadgen itself.
  const std::vector<std::string> loadgen_cmd = {
      loadgen_bin,
      "target=" + host + ":" + std::to_string(target_port),
      "ops=" + config.get_string("ops", "6000"),
      "open_rate=" + config.get_string("open_rate", "2000"),
      "keys=" + config.get_string("keys", "500"),
      "concurrency=" + config.get_string("concurrency", "4"),
      "value_bytes=" + config.get_string("value_bytes", "256"),
      "deadline_ms=" + config.get_string("deadline_ms", "0"),
      "max_exhausted=" + config.get_string("max_exhausted", "0"),
      "seed=" + std::to_string(seed),
      "verify=1",
      "ledger_out=" + ledger_path,
      "preload=0",
      "retry_attempts=12",
      "retry_base_backoff_ms=4",
      "wait_serving_ms=" + std::to_string(recovery_timeout / kMillisecond),
  };
  const Nanos load_start = now_ns();
  const pid_t loadgen_pid = spawn(loadgen_cmd, loadgen_log);

  // The router (dist mode) and the current incarnation of every server:
  // chaosd's own kills happen between these checks, and each victim is
  // reaped and replaced before the next one.
  const auto watched = [&] {
    Watched out;
    if (dist) out.emplace_back("router", router_pid);
    for (const Server& server : servers) {
      out.emplace_back(server.name, server.pid);
    }
    return out;
  };

  std::vector<KillCycle> cycles;
  bool loadgen_done = false;
  int loadgen_status = 0;
  std::optional<UnexpectedExit> died;
  for (const fault::FaultEvent& event : schedule.events) {
    if (event.kind != fault::FaultKind::kKill9) continue;
    KillCycle cycle;
    cycle.scheduled_ms = static_cast<std::uint64_t>(event.at) * epoch_ms;
    const Nanos fire_at =
        load_start + static_cast<Nanos>(cycle.scheduled_ms) * kMillisecond;
    while (now_ns() < fire_at && !loadgen_done && !died) {
      if (!child_alive(loadgen_pid, &loadgen_status)) loadgen_done = true;
      died = first_exit(watched());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (died) break;
    cycle.under_load = !loadgen_done;

    Server& victim = next_victim();
    cycle.victim = victim.node_id;
    std::fprintf(stderr, "chaosd: kill -9 %s at +%llums (under_load=%d)\n",
                 victim.name.c_str(),
                 static_cast<unsigned long long>(cycle.scheduled_ms),
                 cycle.under_load ? 1 : 0);
    const Nanos down_start = now_ns();
    const bool up = kill_and_restart(victim);
    cycle.downtime_ms =
        static_cast<std::uint64_t>((now_ns() - down_start) / kMillisecond);
    cycle.recovered = up && all_live();
    if (cycle.recovered) cycle.health = probe.health_json();
    cycles.push_back(std::move(cycle));
    if (!cycles.back().recovered) break;
  }

  // The WNOHANG probe above already reaped a loadgen that finished.
  loadgen_status = loadgen_done ? exit_code_of(loadgen_status)
                                : wait_loadgen(loadgen_pid, watched(), died);

  // Quiesced digest check: the recovered state after one more crash must
  // fingerprint identically — recovery is exact, not approximate. The
  // router's DIGEST folds every node's, so in dist mode this holds the
  // WHOLE CLUSTER to it, not just the victim.
  std::string digest_before;
  std::string digest_after;
  bool digest_match = false;
  bool final_recovered = false;
  if (!died && (cycles.empty() || cycles.back().recovered)) {
    digest_before = digest_with_retry(probe, recovery_timeout);
    final_recovered = kill_and_restart(next_victim()) && all_live();
    if (final_recovered) {
      digest_after = digest_with_retry(probe, recovery_timeout);
      digest_match = !digest_before.empty() && digest_before == digest_after;
    }
  }

  if (dist) {
    ::kill(router_pid, SIGTERM);
    wait_exit(router_pid);
  }
  for (const Server& server : servers) ::kill(server.pid, SIGTERM);
  for (const Server& server : servers) wait_exit(server.pid);

  std::size_t kills_under_load = 0;
  std::size_t recovered_count = 0;
  std::uint64_t max_downtime_ms = 0;
  for (const KillCycle& c : cycles) {
    if (c.under_load) ++kills_under_load;
    if (c.recovered) ++recovered_count;
    max_downtime_ms = std::max(max_downtime_ms, c.downtime_ms);
  }
  const bool ok = !died && loadgen_status == 0 && digest_match &&
                  final_recovered && recovered_count == cycles.size() &&
                  cycles.size() == kills && kills_under_load == kills;

  const std::string report = render_report(
      dist ? "dist" : "single", seed, ok, loadgen_status, kills,
      kills_under_load, max_downtime_ms, digest_before, digest_after,
      digest_match, schedule.serialize(), cycles, died);
  if (write_report(report, report_out) != 0) return 1;
  std::fprintf(stderr,
               "chaosd%s: %s — %zu/%zu kills under load, loadgen exit %d, "
               "%sdigest %s, max downtime %llums%s\n",
               dist ? "[dist]" : "", ok ? "PASS" : "FAIL", kills_under_load,
               kills, loadgen_status, dist ? "aggregate " : "",
               digest_match ? "match" : "MISMATCH",
               static_cast<unsigned long long>(max_downtime_ms),
               death_note(died).c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Config config;
    config.parse_args(argc, argv);
    return run(config, dirname_of(argv[0]));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "chameleon_chaosd: %s\n", error.what());
    return 1;
  }
}
