// chameleon_chaosd — crash-recovery chaos supervisor (docs/FAULT_MODEL.md).
//
// Runs a durable chameleon_server under a seeded kill schedule while a
// loadgen child hammers it over real TCP, and verifies the whole-system
// durability contract end to end:
//
//   1. boot the server (ephemeral port, durable data_dir), remember the port
//   2. start chameleon_loadgen with verify=1 (acked-write ledger) pointed at it
//   3. at each scheduled point, SIGKILL the server mid-load, restart it on
//      the SAME port, and poll HEALTH until recovery finishes — measuring
//      the downtime window instead of sleeping a guessed duration
//   4. after the load drains: quiesced digest check — DIGEST, kill -9,
//      restart, DIGEST again; the two fingerprints must be identical
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
//   dir=PATH               scratch dir: data_dir, port file, ledger, logs
//                          (default: ./chaosd-run)
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
// Distributed mode (mode=dist, docs/DISTRIBUTED.md): supervise a 3-process
// cluster — N durable data nodes plus a chameleon_router fronting them —
// and kill -9 seeded-chosen DATA NODES under live router load. Each victim
// restarts on a fresh ephemeral port (the router re-resolves its port
// file), must recover, and must be re-absorbed into the router's live set;
// the quiesced check compares the router's AGGREGATE digest across one
// more node crash. Extra flags:
//   mode=single            single | dist
//   nodes=3                data nodes (dist mode)
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

Config parse_flags(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    while (arg.rfind("--", 0) == 0) arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("expected key=value, got: " + arg);
    }
    config.set(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return config;
}

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

/// Poll an aggregate DIGEST until every member answers. The router returns
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

/// mode=dist: N durable data nodes + a router, seeded kill -9 of data
/// nodes under router load, ephemeral-port restarts, aggregate digest check.
int run_dist(const Config& config, const std::string& self_dir) {
  const std::string server_bin =
      config.get_string("server_bin", self_dir + "/chameleon_server");
  const std::string router_bin =
      config.get_string("router_bin", self_dir + "/chameleon_router");
  const std::string loadgen_bin =
      config.get_string("loadgen_bin", self_dir + "/chameleon_loadgen");
  const std::string dir = config.get_string("dir", "./chaosd-dist-run");
  const std::string host = config.get_string("host", "127.0.0.1");
  const auto node_count = static_cast<std::size_t>(
      std::max<std::int64_t>(2, config.get_int("nodes", 3)));
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
  const std::string route_mode = config.get_string("route_mode", "stripe");

  if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    throw std::runtime_error("chaosd: cannot create dir " + dir);
  }

  // Per-node directory layout + the id@host:@/port/file specs the router
  // resolves, so ephemeral-port restarts propagate automatically.
  std::vector<std::string> data_dirs, port_files, logs, specs;
  for (std::size_t i = 0; i < node_count; ++i) {
    const std::string n = std::to_string(i + 1);
    data_dirs.push_back(dir + "/node" + n + "-data");
    port_files.push_back(dir + "/node" + n + "-port.txt");
    logs.push_back(dir + "/node" + n + ".log");
    specs.push_back(n + "@" + host + ":@" + port_files.back());
    ::unlink(port_files.back().c_str());
  }
  const std::string router_port_file = dir + "/router-port.txt";
  const std::string router_log = dir + "/router.log";
  const std::string loadgen_log = dir + "/loadgen.log";
  const std::string ledger_path = dir + "/ledger.jsonl";
  ::unlink(router_port_file.c_str());

  const auto node_args = [&](std::size_t i) {
    return std::vector<std::string>{
        server_bin,
        "listen=" + host + ":0",
        "port_file=" + port_files[i],
        "data_dir=" + data_dirs[i],
        "node_id=" + std::to_string(i + 1),
        "workers=" + config.get_string("workers", "2"),
        "servers=" + config.get_string("servers", "8"),
        "capacity_mb=" + config.get_string("capacity_mb", "64"),
    };
  };

  std::vector<pid_t> node_pids(node_count, -1);
  for (std::size_t i = 0; i < node_count; ++i) {
    node_pids[i] = spawn(node_args(i), logs[i]);
  }
  for (std::size_t i = 0; i < node_count; ++i) {
    await_port_file(port_files[i], 10 * kSecond);
  }

  std::string nodes_flag;
  for (const std::string& spec : specs) {
    if (!nodes_flag.empty()) nodes_flag += ',';
    nodes_flag += spec;
  }
  const std::vector<std::string> router_args = {
      router_bin,
      "listen=" + host + ":0",
      "port_file=" + router_port_file,
      "nodes=" + nodes_flag,
      "mode=" + route_mode,
      "replicas=" + config.get_string("replicas", "2"),
      "ec_k=" + config.get_string("ec_k", "2"),
      "ec_m=" + config.get_string("ec_m", "1"),
      "heartbeat_ms=25",
      "wear_poll_ms=200",
  };
  const pid_t router_pid = spawn(router_args, router_log);
  const std::uint16_t router_port =
      await_port_file(router_port_file, 10 * kSecond);

  svc::ClientConfig probe_config;
  probe_config.host = host;
  probe_config.port = router_port;
  svc::ClientPool probe(probe_config, 1);
  if (!probe.wait_serving(recovery_timeout) ||
      !await_router_live(probe, node_count, recovery_timeout)) {
    throw std::runtime_error("chaosd: router never saw the full live set");
  }

  const fault::FaultSchedule schedule =
      make_schedule(seed, kills, horizon_ms, epoch_ms);
  Xoshiro256 victim_rng(seed ^ 0xd157d157);

  const std::vector<std::string> loadgen_cmd = {
      loadgen_bin,
      "target=" + host + ":" + std::to_string(router_port),
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

  // The router and the current incarnation of every node: chaosd's own
  // kills happen between these checks, and each victim is reaped and
  // replaced before the next one.
  const auto watched = [&] {
    Watched out = {{"router", router_pid}};
    for (std::size_t i = 0; i < node_count; ++i) {
      out.emplace_back("node" + std::to_string(i + 1), node_pids[i]);
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

    const std::size_t victim =
        static_cast<std::size_t>(victim_rng.next() % node_count);
    cycle.victim = static_cast<std::uint32_t>(victim + 1);
    std::fprintf(stderr,
                 "chaosd: kill -9 node %u at +%llums (under_load=%d)\n",
                 cycle.victim,
                 static_cast<unsigned long long>(cycle.scheduled_ms),
                 cycle.under_load ? 1 : 0);
    const Nanos down_start = now_ns();
    ::kill(node_pids[victim], SIGKILL);
    wait_exit(node_pids[victim]);
    // Fresh ephemeral port on restart: the router re-resolves the victim's
    // port file, which is exactly the path a real redeploy takes.
    ::unlink(port_files[victim].c_str());
    node_pids[victim] = spawn(node_args(victim), logs[victim]);
    const std::uint16_t new_port =
        await_port_file(port_files[victim], 10 * kSecond);
    svc::ClientConfig node_probe_config;
    node_probe_config.host = host;
    node_probe_config.port = new_port;
    svc::ClientPool node_probe(node_probe_config, 1);
    const bool node_up = node_probe.wait_serving(recovery_timeout);
    cycle.downtime_ms =
        static_cast<std::uint64_t>((now_ns() - down_start) / kMillisecond);
    // Recovery in dist mode means REJOIN: the router's live view must
    // re-absorb the node, not just the process serving again.
    cycle.recovered =
        node_up && await_router_live(probe, node_count, recovery_timeout);
    if (cycle.recovered) cycle.health = probe.health_json();
    cycles.push_back(std::move(cycle));
    if (!cycles.back().recovered) break;
  }

  loadgen_status = loadgen_done ? exit_code_of(loadgen_status)
                                : wait_loadgen(loadgen_pid, watched(), died);

  // Quiesced aggregate digest across one more node crash: the router folds
  // every node's DIGEST, so this asserts the WHOLE CLUSTER recovered its
  // state exactly, not just the victim.
  std::string digest_before;
  std::string digest_after;
  bool digest_match = false;
  bool final_recovered = false;
  if (!died && (cycles.empty() || cycles.back().recovered)) {
    digest_before = digest_with_retry(probe, recovery_timeout);
    const std::size_t victim =
        static_cast<std::size_t>(victim_rng.next() % node_count);
    ::kill(node_pids[victim], SIGKILL);
    wait_exit(node_pids[victim]);
    ::unlink(port_files[victim].c_str());
    node_pids[victim] = spawn(node_args(victim), logs[victim]);
    await_port_file(port_files[victim], 10 * kSecond);
    final_recovered = await_router_live(probe, node_count, recovery_timeout);
    if (final_recovered) {
      digest_after = digest_with_retry(probe, recovery_timeout);
      digest_match =
          !digest_before.empty() && digest_before == digest_after;
    }
  }

  ::kill(router_pid, SIGTERM);
  wait_exit(router_pid);
  for (const pid_t pid : node_pids) ::kill(pid, SIGTERM);
  for (const pid_t pid : node_pids) wait_exit(pid);

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
      "dist", seed, ok, loadgen_status, kills, kills_under_load,
      max_downtime_ms, digest_before, digest_after, digest_match,
      schedule.serialize(), cycles, died);
  if (write_report(report, report_out) != 0) return 1;
  std::fprintf(stderr,
               "chaosd[dist]: %s — %zu/%zu kills under load, loadgen exit "
               "%d, aggregate digest %s, max downtime %llums%s\n",
               ok ? "PASS" : "FAIL", kills_under_load, kills, loadgen_status,
               digest_match ? "match" : "MISMATCH",
               static_cast<unsigned long long>(max_downtime_ms),
               death_note(died).c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Config config = parse_flags(argc, argv);

    const std::string self_dir = dirname_of(argv[0]);
    if (config.get_string("mode", "single") == "dist") {
      return run_dist(config, self_dir);
    }
    const std::string server_bin =
        config.get_string("server_bin", self_dir + "/chameleon_server");
    const std::string loadgen_bin =
        config.get_string("loadgen_bin", self_dir + "/chameleon_loadgen");
    const std::string dir = config.get_string("dir", "./chaosd-run");
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
    const std::string data_dir = dir + "/data";
    const std::string port_file = dir + "/port.txt";
    const std::string server_log = dir + "/server.log";
    const std::string loadgen_log = dir + "/loadgen.log";
    const std::string ledger_path = dir + "/ledger.jsonl";
    ::unlink(port_file.c_str());

    // The kill schedule: kKill9 events at seeded epochs over the horizon.
    // Serialized into the report so a failure reproduces from the seed.
    const fault::FaultSchedule schedule =
        make_schedule(seed, kills, horizon_ms, epoch_ms);

    const auto server_args = [&](std::uint16_t port) {
      std::vector<std::string> args = {
          server_bin,
          "listen=" + host + ":" + std::to_string(port),
          "port_file=" + port_file,
          "data_dir=" + data_dir,
          "workers=" + config.get_string("workers", "2"),
          "servers=" + config.get_string("servers", "8"),
          "capacity_mb=" + config.get_string("capacity_mb", "64"),
      };
      return args;
    };

    pid_t server_pid = spawn(server_args(0), server_log);
    const std::uint16_t port = await_port_file(port_file, 10 * kSecond);

    svc::ClientConfig probe_config;
    probe_config.host = host;
    probe_config.port = port;
    svc::ClientPool probe(probe_config, 1);
    if (!probe.wait_serving(recovery_timeout)) {
      throw std::runtime_error("chaosd: server never became serving");
    }

    // The load: acked-write ledger + verification ON, generous retry budget
    // so clients ride out each restart, bounded error window enforced by
    // max_exhausted inside loadgen itself.
    const std::vector<std::string> loadgen_cmd = {
        loadgen_bin,
        "target=" + host + ":" + std::to_string(port),
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
        "wait_serving_ms=" +
            std::to_string(recovery_timeout / kMillisecond),
    };
    const Nanos load_start = now_ns();
    const pid_t loadgen_pid = spawn(loadgen_cmd, loadgen_log);

    const auto watched = [&] { return Watched{{"server", server_pid}}; };

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

      std::fprintf(stderr, "chaosd: kill -9 at +%llums (under_load=%d)\n",
                   static_cast<unsigned long long>(cycle.scheduled_ms),
                   cycle.under_load ? 1 : 0);
      const Nanos down_start = now_ns();
      ::kill(server_pid, SIGKILL);
      wait_exit(server_pid);
      server_pid = spawn(server_args(port), server_log);
      cycle.recovered = probe.wait_serving(recovery_timeout);
      cycle.downtime_ms = static_cast<std::uint64_t>(
          (now_ns() - down_start) / kMillisecond);
      if (cycle.recovered) cycle.health = probe.health_json();
      cycles.push_back(std::move(cycle));
      if (!cycles.back().recovered) break;
    }

    // The WNOHANG probe above already reaped a loadgen that finished.
    loadgen_status = loadgen_done ? exit_code_of(loadgen_status)
                                  : wait_loadgen(loadgen_pid, watched(), died);

    // Quiesced digest check: the recovered state after one more crash must
    // fingerprint identically — recovery is exact, not approximate.
    std::string digest_before;
    std::string digest_after;
    bool digest_match = false;
    bool final_recovered = false;
    if (!died && (cycles.empty() || cycles.back().recovered)) {
      digest_before = probe.digest();
      ::kill(server_pid, SIGKILL);
      wait_exit(server_pid);
      server_pid = spawn(server_args(port), server_log);
      final_recovered = probe.wait_serving(recovery_timeout);
      if (final_recovered) {
        digest_after = probe.digest();
        digest_match = !digest_before.empty() &&
                       digest_before == digest_after;
      }
    }

    ::kill(server_pid, SIGTERM);
    wait_exit(server_pid);

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
        "single", seed, ok, loadgen_status, kills, kills_under_load,
        max_downtime_ms, digest_before, digest_after, digest_match,
        schedule.serialize(), cycles, died);
    if (write_report(report, report_out) != 0) return 1;
    std::fprintf(stderr,
                 "chaosd: %s — %zu/%zu kills under load, loadgen exit %d, "
                 "digest %s, max downtime %llums%s\n",
                 ok ? "PASS" : "FAIL", kills_under_load, kills,
                 loadgen_status, digest_match ? "match" : "MISMATCH",
                 static_cast<unsigned long long>(max_downtime_ms),
                 death_note(died).c_str());
    return ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "chameleon_chaosd: %s\n", error.what());
    return 1;
  }
}
