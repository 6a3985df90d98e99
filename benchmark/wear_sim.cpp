// wear_sim: the paper's own experiment. sim::run_experiment_on replays the
// ycsb-zipf preset through a 20-server Chameleon-EC cluster (scale 0.1, two
// shard workers) with no network in the way, so balancer epochs and the FTL
// do almost all the work. The preset stream is wrapped in TimedStream, which
// times the engine between consecutive next() calls: that is each simulated
// request's wall-clock service time, epochs included, measured from outside
// through the engine's public stream interface.
#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "kv/kv_store.hpp"
#include "layers.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"
#include "workload/registry.hpp"
#include "workloads.hpp"

namespace chameleon::bench {

namespace {

constexpr const char* kPreset = "ycsb-zipf";
constexpr std::uint32_t kServers = 20;
constexpr double kScale = 0.1;
constexpr std::uint32_t kWorkers = 2;
constexpr std::size_t kMinReps = 3;

/// Pass-through stream that records, for the last pass the engine makes,
/// when the pass started, when it ended, and how long the engine spent on
/// each record (from the return of next() that produced it to the call
/// that asks for the following one).
class TimedStream final : public workload::WorkloadStream {
 public:
  TimedStream(workload::WorkloadStream& inner, Nanos epoch_length)
      : inner_(inner), epoch_length_(epoch_length) {}

  struct Request {
    float ns;
    bool is_write;
    std::uint32_t epochs;  ///< balancing epochs fired before this request
  };

  bool next(workload::TraceRecord& out) override {
    const Nanos enter = now_ns();
    if (has_pending_) {
      pending_.ns = static_cast<float>(enter - pending_exit_);
      requests_.push_back(pending_);
      has_pending_ = false;
    } else if (requests_.empty()) {
      first_enter_ = enter;
    }
    const bool more = inner_.next(out);
    if (!more) {
      end_ = enter;
      return false;
    }
    const Nanos before = clock_max_ / epoch_length_;
    clock_max_ = std::max(clock_max_, out.timestamp);
    pending_.is_write = out.is_write;
    pending_.epochs =
        static_cast<std::uint32_t>(clock_max_ / epoch_length_ - before);
    if (out.is_write) user_bytes_ += out.size_bytes;
    has_pending_ = true;
    pending_exit_ = now_ns();
    return true;
  }

  void reset() override {
    inner_.reset();
    requests_.clear();
    has_pending_ = false;
    clock_max_ = 0;
    user_bytes_ = 0;
    first_enter_ = end_ = 0;
  }

  std::uint64_t expected_requests() const override {
    return inner_.expected_requests();
  }
  const std::string& name() const override { return inner_.name(); }

  const std::vector<Request>& requests() const { return requests_; }
  Nanos first_enter() const { return first_enter_; }
  Nanos end() const { return end_; }
  std::uint64_t user_bytes() const { return user_bytes_; }

 private:
  workload::WorkloadStream& inner_;
  Nanos epoch_length_;
  std::vector<Request> requests_;
  Request pending_{};
  bool has_pending_ = false;
  Nanos pending_exit_ = 0;
  Nanos clock_max_ = 0;
  std::uint64_t user_bytes_ = 0;
  Nanos first_enter_ = 0;
  Nanos end_ = 0;
};

/// One replay. Only quantiles are kept, so this process's memory does not
/// grow with the number of reps (it is part of peak_rss_mb).
struct Rep {
  double setup_s = 0.0;
  double goodput = 0.0;
  double get_p50_ns = 0.0;
  double get_p90_ns = 0.0;
  double get_p99_ns = 0.0;
  double put_p50_ns = 0.0;
  double put_p90_ns = 0.0;
  double put_p99_ns = 0.0;
  std::vector<double> epoch_ns;  ///< per epoch, from epoch-firing requests
  std::uint64_t epochs = 0;
  std::uint64_t user_bytes = 0;
  sim::ExperimentResult result;
};

Rep run_rep(const sim::ExperimentConfig& config, TimedStream& stream,
            std::uint64_t dataset_bytes) {
  Rep rep;
  const Nanos call = now_ns();
  rep.result = sim::run_experiment_on(config, stream, dataset_bytes);
  rep.setup_s = static_cast<double>(stream.first_enter() - call) / 1e9;
  const double replay_s =
      static_cast<double>(stream.end() - stream.first_enter()) / 1e9;
  rep.goodput = static_cast<double>(rep.result.requests) / replay_s;
  std::vector<double> get_ns;
  std::vector<double> put_ns;
  for (const TimedStream::Request& r : stream.requests()) {
    (r.is_write ? put_ns : get_ns).push_back(r.ns);
    if (r.epochs > 0) {
      rep.epoch_ns.push_back(static_cast<double>(r.ns) / r.epochs);
      rep.epochs += r.epochs;
    }
  }
  rep.get_p50_ns = exact_percentile(get_ns, 50.0);
  rep.get_p90_ns = exact_percentile(get_ns, 90.0);
  rep.get_p99_ns = exact_percentile(get_ns, 99.0);
  rep.put_p50_ns = exact_percentile(put_ns, 50.0);
  rep.put_p90_ns = exact_percentile(put_ns, 90.0);
  rep.put_p99_ns = exact_percentile(put_ns, 99.0);
  rep.user_bytes = stream.user_bytes();
  return rep;
}

double self_peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace

void run_wear_sim(const RunContext& ctx, Report& report) {
  sim::ExperimentConfig config;
  config.workload = kPreset;
  config.scheme = sim::Scheme::kChameleonEc;
  config.servers = kServers;
  config.scale = kScale;
  config.seed = ctx.seed;
  config.workers = kWorkers;
  config.collect_timeline = false;
  const auto preset_cfg = workload::preset_config(kPreset).scaled(kScale);
  auto preset = workload::make_preset(kPreset, kScale, ctx.seed);
  TimedStream stream(*preset, config.epoch_length);
  report.note("preset", kPreset);
  report.note("servers", std::to_string(kServers));
  report.note("scale", std::to_string(kScale));
  report.note("workers", std::to_string(kWorkers));

  // A traced run times two plain reps and then one with the metrics
  // registry on, for bench.trace_overhead and the FTL counters.
  std::vector<Rep> reps;
  const Nanos start = now_ns();
  const std::size_t plain_reps = ctx.trace ? 2 : kMinReps;
  while (reps.size() < plain_reps ||
         (!ctx.trace && seconds_since(start) < ctx.seconds)) {
    reps.push_back(run_rep(config, stream, preset_cfg.dataset_bytes));
  }
  std::vector<PromSample> traced_metrics;
  if (ctx.trace) {
    obs::set_enabled(true);
    reps.push_back(run_rep(config, stream, preset_cfg.dataset_bytes));
    traced_metrics = parse_prometheus(obs::render_prometheus(obs::metrics()));
    obs::set_enabled(false);
  }

  std::uint64_t requests = 0;
  bool same_state = true;
  for (const Rep& rep : reps) {
    requests += rep.result.requests;
    same_state = same_state &&
                 rep.result.state_digest == reps.front().result.state_digest &&
                 rep.result.requests == reps.front().result.requests;
  }
  report.add_ops(requests, 0);
  report.check(same_state, "state digest identical across " +
                               std::to_string(reps.size()) + " reps");

  // Untraced reps only; the traced one (last, in a traced run) differs in
  // that the metrics registry is on.
  std::vector<double> setups;
  std::vector<double> goodputs;
  std::vector<double> get_p50s;
  std::vector<double> get_p90s;
  std::vector<double> get_p99s;
  std::vector<double> put_p50s;
  std::vector<double> put_p90s;
  std::vector<double> put_p99s;
  std::vector<double> epoch_ns;
  const std::size_t plain = ctx.trace ? reps.size() - 1 : reps.size();
  for (std::size_t i = 0; i < plain; ++i) {
    setups.push_back(reps[i].setup_s);
    goodputs.push_back(reps[i].goodput);
    get_p50s.push_back(reps[i].get_p50_ns / 1e3);
    get_p90s.push_back(reps[i].get_p90_ns / 1e3);
    get_p99s.push_back(reps[i].get_p99_ns / 1e3);
    put_p50s.push_back(reps[i].put_p50_ns / 1e3);
    put_p90s.push_back(reps[i].put_p90_ns / 1e3);
    put_p99s.push_back(reps[i].put_p99_ns / 1e3);
    epoch_ns.insert(epoch_ns.end(), reps[i].epoch_ns.begin(),
                    reps[i].epoch_ns.end());
  }

  if (!ctx.trace) {
    report.e2e("setup_s", median(setups), "s", setups, setups.size());
    report.e2e("goodput_ops_s", median(goodputs), "ops/s", goodputs, requests);
    // Each latency is the median over reps of the rep's quantile; p99 is a
    // note, as for the serve workloads.
    const std::uint64_t per_rep = reps.front().result.requests;
    report.e2e("get_p50_us", median(get_p50s), "us", get_p50s, per_rep);
    report.e2e("get_p90_us", median(get_p90s), "us", get_p90s, per_rep);
    report.e2e("put_p50_us", median(put_p50s), "us", put_p50s, per_rep);
    report.e2e("put_p90_us", median(put_p90s), "us", put_p90s, per_rep);
    report.note("get_p99_us", std::to_string(median(get_p99s)));
    report.note("put_p99_us", std::to_string(median(put_p99s)));
    report.e2e("peak_rss_mb", self_peak_rss_mb(), "MB", {}, 1);
    return;
  }

  const Rep& traced = reps.back();
  const sim::ExperimentResult& r = traced.result;
  const auto user = static_cast<double>(traced.user_bytes);
  LayerValues layers;
  layers["kv.get_us"] = median(get_p50s);
  layers["kv.put_us"] = median(put_p50s);
  layers["core.epoch_ms"] = median(epoch_ns) / 1e6;
  layers["core.epochs"] = static_cast<double>(traced.epochs);
  const double host_writes =
      prom_sum(traced_metrics, "chameleon_device_write_latency_ns_count");
  const double copies =
      prom_sum(traced_metrics, "chameleon_gc_page_copies_total");
  const double erases =
      prom_sum(traced_metrics, "chameleon_block_erases_total");
  layers["flashsim.wa"] =
      host_writes > 0 ? (host_writes + copies) / host_writes : 0.0;
  layers["flashsim.gc_erases_per_kwrite"] =
      host_writes > 0 ? erases * 1000.0 / host_writes : 0.0;
  layers["sim.erase_cv"] = r.erase_cv();
  layers["sim.write_amp"] = r.write_amplification;
  layers["sim.migration_bytes_per_user_byte"] =
      static_cast<double>(r.migration_bytes) / user;
  layers["sim.conversion_bytes_per_user_byte"] =
      static_cast<double>(r.conversion_bytes) / user;
  layers["sim.swap_bytes_per_user_byte"] =
      static_cast<double>(r.swap_bytes) / user;
  layers["sim.balance_bytes_per_user_byte"] =
      static_cast<double>(r.migration_bytes + r.conversion_bytes +
                          r.swap_bytes) /
      user;
  layers["bench.trace_overhead"] = median(goodputs) / traced.goodput - 1.0;

  ByteLayerParams bytes;
  bytes.value_bytes = preset_cfg.mean_object_bytes;
  bytes.read_ratio = 1.0 - preset_cfg.write_ratio;
  bytes.keys = preset_cfg.dataset_bytes / preset_cfg.mean_object_bytes;
  bytes.ring_servers = kServers;
  bytes.ring_vnodes = config.ring_vnodes;
  bytes.ring_successors = kv::KvConfig{}.ec_total;
  bytes.utilisation = config.target_utilization;
  bytes.scratch_dir = ctx.work_dir / "layers";
  time_byte_layers(bytes, ctx.seed, layers);
  emit_layers(layers, report);
}

}  // namespace chameleon::bench
