// Serve workloads: real chameleon_server (and chameleon_router) processes
// driven over TCP from this process.
//
// Untraced run (servers start with metrics=0):
//   set up kSetupReps times (spawn until HEALTH reports serving; on a
//   durable workload, restarts on the data_dir the preload left, so this is
//   recovery time) -> preload -> 1 s warm-up -> closed loop, kClosedReps
//   reps -> open loop at the frozen rate -> AckLedger readback -> drain.
// Traced run: one untraced closed-loop rep for bench.trace_overhead, then a
//   metrics=1 deployment whose METRICS/STATS are differenced around the
//   closed loop, then the in-process layer timings (layers.cpp).
#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json_parse.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "proc.hpp"
#include "workloads.hpp"

namespace chameleon::bench {

namespace {

namespace fs = std::filesystem;

constexpr Nanos kListenTimeout = 30 * kSecond;
constexpr Nanos kServingTimeout = 60 * kSecond;
constexpr Nanos kStopGrace = 10 * kSecond;
constexpr const char* kStages[] = {"decode",     "admission", "queue",
                                   "store_exec", "wal_fsync", "completion",
                                   "flush"};

/// One incarnation of the workload's processes: `spec.nodes` servers, plus
/// the router in front of them when there is more than one.
class Deployment {
 public:
  Deployment(const ServeSpec& spec, const fs::path& dir, bool metrics,
             int incarnation) {
    const std::string inc = std::to_string(incarnation);
    const Nanos start = now_ns();
    std::vector<fs::path> port_files;
    for (std::uint32_t i = 1; i <= spec.nodes; ++i) {
      port_files.push_back(dir / ("port-node" + std::to_string(i) + "-" + inc));
    }
    for (std::uint32_t i = 1; i <= spec.nodes; ++i) {
      std::vector<std::string> args = {
          "listen=127.0.0.1:0",
          "port_file=" + port_files[i - 1].string(),
          std::string("metrics=") + (metrics ? "1" : "0"),
          "servers=" + std::to_string(kFlashServers),
          "capacity_mb=" + std::to_string(spec.capacity_mb),
          "workers=" + std::to_string(spec.server_workers),
          "epoch_every_ops=" + std::to_string(kEpochEveryOps)};
      if (spec.durable) {
        args.push_back("data_dir=" + (dir / "data").string());
        args.emplace_back("fsync=always");
        args.emplace_back("group_commit=1");
      }
      if (spec.nodes > 1) {
        args.push_back("node_id=" + std::to_string(i));
        std::string peers;
        for (std::uint32_t j = 1; j <= spec.nodes; ++j) {
          if (j == i) continue;
          if (!peers.empty()) peers += ',';
          peers += std::to_string(j) + "@127.0.0.1:@" +
                   port_files[j - 1].string();
        }
        args.push_back("peers=" + peers);
      }
      procs_.push_back(std::make_unique<Child>(
          BENCH_SERVER_PATH, args,
          dir / ("node" + std::to_string(i) + "-" + inc + ".log")));
    }
    for (std::uint32_t i = 0; i < spec.nodes; ++i) {
      node_ports_.push_back(
          await_port(port_files[i], *procs_[i], kListenTimeout));
      await_serving(node_ports_.back(), kServingTimeout);
    }
    front_port_ = node_ports_.front();
    // The router starts once its nodes serve, so its first membership probe
    // settles the view instead of waiting out a heartbeat interval.
    if (spec.nodes > 1) {
      const fs::path router_port_file = dir / ("port-router-" + inc);
      std::string nodes;
      for (std::uint32_t i = 1; i <= spec.nodes; ++i) {
        if (!nodes.empty()) nodes += ',';
        nodes += std::to_string(i) + "@127.0.0.1:@" +
                 port_files[i - 1].string();
      }
      procs_.push_back(std::make_unique<Child>(
          BENCH_ROUTER_PATH,
          std::vector<std::string>{
              "listen=127.0.0.1:0", "port_file=" + router_port_file.string(),
              "nodes=" + nodes, "mode=stripe", "ec_k=2", "ec_m=1",
              std::string("metrics=") + (metrics ? "1" : "0")},
          dir / ("router-" + inc + ".log")));
      front_port_ =
          await_port(router_port_file, *procs_.back(), kListenTimeout);
      await_serving(front_port_, kServingTimeout);
    }
    setup_s_ = seconds_since(start);
  }

  double setup_seconds() const { return setup_s_; }
  std::uint16_t front_port() const { return front_port_; }
  const std::vector<std::uint16_t>& node_ports() const { return node_ports_; }
  bool has_router() const { return procs_.size() > node_ports_.size(); }

  double peak_rss_mb() const {
    double total = 0.0;
    for (const auto& p : procs_) total += p->peak_rss_mb();
    return total;
  }

  /// Graceful drain, router first. True when every process exited 0.
  bool stop() {
    bool clean = true;
    for (auto it = procs_.rbegin(); it != procs_.rend(); ++it) {
      const int code = (*it)->stop(kStopGrace);
      if (code != 0) {
        std::fprintf(stderr, "chameleon_benchmark: process exited %d:\n%s\n",
                     code, (*it)->log_tail().c_str());
        clean = false;
      }
    }
    return clean;
  }

 private:
  std::vector<std::unique_ptr<Child>> procs_;  ///< nodes, then the router
  std::vector<std::uint16_t> node_ports_;
  std::uint16_t front_port_ = 0;
  double setup_s_ = 0.0;
};

/// METRICS and STATS of one process.
struct Snapshot {
  std::vector<PromSample> metrics;
  JsonValue stats;
};

Snapshot snapshot(std::uint16_t port) {
  svc::ClientPool pool(client_config(port), 1);
  Snapshot s;
  s.metrics = parse_prometheus(pool.metrics_text());
  s.stats = json_parse(pool.stats_json());
  return s;
}

std::vector<Snapshot> snapshot_nodes(const Deployment& dep) {
  std::vector<Snapshot> out;
  for (const std::uint16_t port : dep.node_ports()) {
    out.push_back(snapshot(port));
  }
  return out;
}

/// Sum over processes of (after - before) for one METRICS series.
double metric_delta(
    const std::vector<Snapshot>& before, const std::vector<Snapshot>& after,
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        match = {}) {
  double total = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    total += prom_sum(after[i].metrics, name, match) -
             prom_sum(before[i].metrics, name, match);
  }
  return total;
}

double stat_delta(const std::vector<Snapshot>& before,
                  const std::vector<Snapshot>& after, const std::string& key) {
  double total = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    total += after[i].stats.number_or(key, 0.0) -
             before[i].stats.number_or(key, 0.0);
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Open-loop latency per op over the whole phase; the in-run spread is over
/// its thirds. The tail metric is p90: p99 and beyond are set by balancing
/// epochs (a checkpoint stalls the durable server for ~100 ms) and by host
/// scheduling hiccups, and do not repeat from run to run. They are recorded
/// as notes.
void report_latency(Report& report, const LoadStats& open, double seconds) {
  constexpr std::size_t kWindows = 3;
  for (const bool is_get : {true, false}) {
    const std::string op = is_get ? "get" : "put";
    const std::vector<double>& all = is_get ? open.get_ns : open.put_ns;
    std::vector<std::vector<double>> by_window(kWindows);
    for (const LoadStats::Sample& s : open.samples) {
      if (s.is_get != is_get) continue;
      const auto w =
          static_cast<std::size_t>(s.due_ns / (seconds * 1e9) * kWindows);
      by_window[std::min(w, kWindows - 1)].push_back(s.latency_ns);
    }
    for (const double p : {50.0, 90.0}) {
      std::vector<double> per_window;
      for (const std::vector<double>& window : by_window) {
        per_window.push_back(exact_percentile(window, p) / 1e3);
      }
      report.e2e(op + (p < 90.0 ? "_p50_us" : "_p90_us"),
                 exact_percentile(all, p) / 1e3, "us", per_window,
                 all.size());
    }
    for (const double p : {99.0, 99.9}) {
      report.note(op + (p < 99.9 ? "_p99_us" : "_p999_us"),
                  std::to_string(exact_percentile(all, p) / 1e3));
    }
  }
}

/// Per-layer rows read from the servers around the timed closed loop.
void serving_layers(const ServeSpec& spec, const std::vector<Snapshot>& before,
                    const std::vector<Snapshot>& after,
                    const std::vector<Snapshot>& router_before,
                    const std::vector<Snapshot>& router_after,
                    const LoadStats& closed, Report& report,
                    LayerValues& out) {
  const double ops = static_cast<double>(closed.attempted);
  for (const bool is_get : {true, false}) {
    const std::string op = is_get ? "get" : "put";
    const std::vector<double>& spans = is_get ? closed.get_ns : closed.put_ns;
    const auto n = static_cast<double>(spans.size());
    double attributed_us = 0.0;
    for (const char* stage : kStages) {
      // Behind the router a client PUT reaches the nodes as stripe_write
      // RPCs and a client GET as shard GETs: the rows are node-side time
      // per client op.
      double seconds =
          metric_delta(before, after, "chameleon_svc_stage_seconds_sum",
                       {{"op", op}, {"stage", stage}});
      if (!is_get) {
        seconds +=
            metric_delta(before, after, "chameleon_svc_stage_seconds_sum",
                         {{"op", "stripe_write"}, {"stage", stage}});
      }
      const double us = ratio(seconds * 1e6, n);
      attributed_us += us;
      if (!(is_get && std::string_view(stage) == "wal_fsync")) {
        out["svc." + op + "." + stage + "_us"] = us;
      }
    }
    out["svc." + op + ".unattributed_us"] = mean(spans) / 1e3 - attributed_us;
    if (spec.nodes == 1) {
      const double count =
          metric_delta(before, after, "chameleon_svc_stage_seconds_count",
                       {{"op", op}, {"stage", "decode"}});
      report.check(count == n, "svc " + op + " stage count (" +
                                   std::to_string(count) +
                                   ") equals timed op count (" +
                                   std::to_string(n) + ")");
    }
  }
  out["svc.shed_frac"] = ratio(stat_delta(before, after, "shed_total"), ops);

  const double host_writes =
      metric_delta(before, after, "chameleon_device_write_latency_ns_count");
  const double copies =
      metric_delta(before, after, "chameleon_gc_page_copies_total");
  const double erases =
      metric_delta(before, after, "chameleon_block_erases_total");
  out["flashsim.wa"] = ratio(host_writes + copies, host_writes);
  out["flashsim.gc_erases_per_kwrite"] = ratio(erases * 1000.0, host_writes);

  if (spec.durable) {
    out["durability.puts_per_fsync"] =
        ratio(stat_delta(before, after, "wal_group_commit_acks_total"),
              stat_delta(before, after, "wal_group_commits_total"));
  }
  if (!router_after.empty()) {
    out["dist.fanout_rpcs_per_op"] = ratio(
        stat_delta(router_before, router_after, "fanout_rpcs_total"), ops);
    out["dist.reconstructions_per_kop"] = ratio(
        stat_delta(router_before, router_after, "reconstructions_total") *
            1000.0,
        ops);
    out["dist.retry_later_frac"] = ratio(
        stat_delta(router_before, router_after, "retry_later_total"), ops);
  }
}

}  // namespace

void run_serve(const ServeSpec& spec, const RunContext& ctx, Report& report) {
  const double closed_rep_s = ctx.seconds / (2.0 * kClosedReps);
  const double open_s = ctx.seconds / 2.0;
  report.note("keys", std::to_string(spec.keys));
  report.note("value_bytes", std::to_string(spec.value_bytes));
  report.note("read_ratio", std::to_string(spec.read_ratio));
  report.note("open_rate_ops_s", std::to_string(spec.open_rate));
  report.note("capacity_mb", std::to_string(spec.capacity_mb));

  std::vector<OpStream> streams;
  for (unsigned w = 0; w < kClientThreads; ++w) {
    streams.emplace_back(spec, ctx.seed, w);
  }
  auto log = std::make_unique<WriteLog>(spec.value_bytes, ctx.seed);
  const auto count = [&](const LoadStats& s) {
    report.add_ops(s.attempted, s.failed);
  };

  std::unique_ptr<Deployment> dep;
  std::unique_ptr<svc::ClientPool> pool;
  int incarnation = 0;
  bool clean = true;
  const auto redeploy = [&](bool metrics) {
    pool.reset();
    if (dep) clean = dep->stop() && clean;
    dep.reset();
    dep = std::make_unique<Deployment>(spec, ctx.work_dir, metrics,
                                       incarnation++);
    pool = std::make_unique<svc::ClientPool>(client_config(dep->front_port()),
                                             kClientThreads);
  };

  std::vector<double> setups;
  if (spec.durable) {
    redeploy(false);
    count(preload(*pool, streams, *log));
    for (int i = 0; i < kSetupReps; ++i) {
      redeploy(false);
      setups.push_back(dep->setup_seconds());
    }
  } else {
    for (int i = 0; i < kSetupReps; ++i) {
      redeploy(false);
      setups.push_back(dep->setup_seconds());
    }
    count(preload(*pool, streams, *log));
  }
  count(closed_loop(*pool, streams, *log, kWarmupSeconds));

  LayerValues layers;
  double untraced_goodput = 0.0;
  std::vector<Snapshot> before;
  std::vector<Snapshot> after;
  std::vector<Snapshot> router_before;
  std::vector<Snapshot> router_after;
  if (ctx.trace) {
    const LoadStats baseline = closed_loop(*pool, streams, *log, closed_rep_s);
    count(baseline);
    untraced_goodput = baseline.goodput();
    redeploy(true);
    if (!spec.durable) {
      // A fresh store: the ledger starts over with it.
      log = std::make_unique<WriteLog>(spec.value_bytes, ctx.seed + 1);
      count(preload(*pool, streams, *log));
    }
    count(closed_loop(*pool, streams, *log, kWarmupSeconds));
    before = snapshot_nodes(*dep);
    if (dep->has_router()) router_before.push_back(snapshot(dep->front_port()));
  }

  LoadStats closed;
  std::vector<double> goodputs;
  for (int rep = 0; rep < kClosedReps; ++rep) {
    const LoadStats c = closed_loop(*pool, streams, *log, closed_rep_s);
    count(c);
    goodputs.push_back(c.goodput());
    closed.merge(c);
  }
  if (ctx.trace) {
    after = snapshot_nodes(*dep);
    if (dep->has_router()) router_after.push_back(snapshot(dep->front_port()));
  }

  const LoadStats open =
      open_loop(dep->front_port(), streams, *log, spec.open_rate, open_s);
  count(open);
  const double lag_p99_us = exact_percentile(open.lag_ns, 99.0) / 1e3;
  report.validity(lag_p99_us <= kMaxLagP99Us,
                  "open-loop generator lag p99 of " +
                      std::to_string(lag_p99_us) + " us exceeds 1 ms");
  const double peak_rss = dep->peak_rss_mb();

  const ReadbackResult rb = readback(*pool, *log);
  report.add_ops(rb.keys, rb.failed);
  report.check(rb.keys > 0 && rb.failed == 0 && rb.violations == 0,
               "AckLedger readback of " + std::to_string(rb.keys) +
                   " acked keys: " + std::to_string(rb.violations) +
                   " violations, " + std::to_string(rb.failed) +
                   " unreadable");

  if (ctx.trace) {
    layers["dist.node_rtt_us"] = node_rtt_us(dep->node_ports().front());
    if (dep->has_router()) {
      time_router_layers(spec, dep->node_ports(), ctx.seed, layers);
    }
  }
  pool.reset();
  clean = dep->stop() && clean;
  dep.reset();
  report.check(clean, "every spawned process drained and exited 0");

  if (!ctx.trace) {
    report.e2e("setup_s", median(setups), "s", setups, setups.size());
    report.e2e("goodput_ops_s", median(goodputs), "ops/s", goodputs,
               closed.ok);
    report_latency(report, open, open_s);
    report.e2e("peak_rss_mb", peak_rss, "MB", {}, 1);
    return;
  }

  serving_layers(spec, before, after, router_before, router_after, closed,
                 report, layers);
  layers["bench.lag_p99_us"] = lag_p99_us;
  layers["bench.trace_overhead"] = untraced_goodput / median(goodputs) - 1.0;
  time_store_layers(spec, ctx.seed, layers);
  time_byte_layers(serve_byte_params(spec, ctx.work_dir / "layers"), ctx.seed,
                   layers);
  emit_layers(layers, report);
}

}  // namespace chameleon::bench
