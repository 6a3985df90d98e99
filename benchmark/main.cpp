// chameleon_benchmark — the repository's end-to-end benchmark (README.md).
//
//   chameleon_benchmark workload=<name> seed=<n> [seconds=10] [trace=0|1]
//                       [out=FILE.json] [work_dir=DIR]
//
// Workloads: kv_read_mostly, kv_write_durable, dist_stripe (real
// chameleon_server / chameleon_router processes driven over TCP) and
// wear_sim (sim::run_experiment_on in this process). trace=0 reports the
// end-to-end metrics, trace=1 the per-layer ones. Exits 1 when a
// correctness check fails, 2 on a usage or setup error.
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "report.hpp"
#include "workloads.hpp"

using namespace chameleon;
using namespace chameleon::bench;

int main(int argc, char** argv) {
  try {
    std::map<std::string, std::string> args = {
        {"seconds", "10"}, {"trace", "0"}, {"out", ""}, {"work_dir", ""}};
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      while (arg.rfind("--", 0) == 0) arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("expected key=value, got: " + arg);
      }
      const std::string key = arg.substr(0, eq);
      if (key != "workload" && key != "seed" && !args.count(key)) {
        throw std::invalid_argument("unknown argument: " + key);
      }
      args[key] = arg.substr(eq + 1);
    }
    if (!args.count("workload") || !args.count("seed")) {
      throw std::invalid_argument("workload= and seed= are required");
    }

    RunContext ctx;
    const std::string workload = args["workload"];
    ctx.seed = std::stoull(args["seed"]);
    ctx.seconds = std::stod(args["seconds"]);
    ctx.trace = args["trace"] == "1";
    if (ctx.seconds <= 0.0) throw std::invalid_argument("seconds must be > 0");
    const ServeSpec* spec = find_serve_spec(workload);
    if (spec == nullptr && workload != "wear_sim") {
      throw std::invalid_argument("unknown workload: " + workload);
    }
    ctx.work_dir = args["work_dir"].empty()
                       ? std::filesystem::path(".bench_work") /
                             (workload + "-" + std::to_string(ctx.seed) + "-" +
                              std::to_string(::getpid()))
                       : std::filesystem::path(args["work_dir"]);
    ctx.work_dir = std::filesystem::absolute(ctx.work_dir);
    std::filesystem::remove_all(ctx.work_dir);
    std::filesystem::create_directories(ctx.work_dir);
    std::signal(SIGPIPE, SIG_IGN);

    Report report(workload, ctx.seed, ctx.trace, ctx.seconds);
    if (spec != nullptr) {
      run_serve(*spec, ctx, report);
    } else {
      run_wear_sim(ctx, report);
    }
    report.finish(args["out"]);
    if (!report.correct()) {
      std::fprintf(stderr, "chameleon_benchmark: correctness check failed; "
                           "logs kept in %s\n",
                   ctx.work_dir.c_str());
      return 1;
    }
    std::filesystem::remove_all(ctx.work_dir);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "chameleon_benchmark: %s\n", error.what());
    return 2;
  }
}
