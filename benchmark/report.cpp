#include "report.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/json.hpp"

namespace chameleon::bench {

namespace {

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::vector<std::pair<std::string, std::string>> host_metadata(
    std::uint64_t seed) {
  return {
      {"nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN))},
      {"compiler", compiler_name()},
      {"build_type", BENCH_BUILD_TYPE},
      {"git_revision", BENCH_GIT_REVISION},
      {"seed", std::to_string(seed)},
  };
}

}  // namespace

Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(Nanos start) {
  return static_cast<double>(now_ns() - start) / 1e9;
}

Report::Report(std::string workload, std::uint64_t seed, bool trace,
               double seconds)
    : workload_(std::move(workload)),
      seed_(seed),
      trace_(trace),
      seconds_(seconds) {}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit, const std::vector<double>& spread,
                 std::uint64_t samples) {
  Row row;
  row.name = name;
  row.value = value;
  row.unit = unit;
  row.end_to_end = true;
  row.samples = samples;
  if (spread.empty()) {
    row.min = row.med = row.max = value;
  } else {
    row.min = *std::min_element(spread.begin(), spread.end());
    row.max = *std::max_element(spread.begin(), spread.end());
    row.med = median(spread);
  }
  check(std::isfinite(value) && value > 0.0, name + " is finite and > 0");
  rows_.push_back(std::move(row));
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  Row row;
  row.name = name;
  row.value = value;
  row.unit = unit;
  check(std::isfinite(value), name + " is finite");
  rows_.push_back(std::move(row));
}

void Report::check(bool ok, const std::string& what) {
  checks_.emplace_back(what, ok);
  if (!ok) std::fprintf(stderr, "chameleon_benchmark: CHECK FAILED: %s\n",
                        what.c_str());
}

void Report::validity(bool ok, const std::string& what) {
  if (ok) return;
  invalid_.push_back(what);
  std::fprintf(stderr, "chameleon_benchmark: INVALID MEASUREMENT: %s\n",
               what.c_str());
}

void Report::add_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

bool Report::correct() const {
  if (attempted_ == 0) return false;
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.second; });
}

void Report::finish(const std::string& out_path) const {
  const auto host = host_metadata(seed_);
  std::string host_line = "# host";
  for (const auto& [k, v] : host) host_line += " " + k + "=" + v;
  std::printf("%s\n# workload=%s trace=%d seconds=%s\n", host_line.c_str(),
              workload_.c_str(), trace_ ? 1 : 0,
              json_number(seconds_).c_str());

  for (const Row& row : rows_) {
    std::printf("%s %s %s", row.name.c_str(), json_number(row.value).c_str(),
                row.unit.c_str());
    if (row.end_to_end) {
      std::printf(" min=%s median=%s max=%s n=%llu",
                  json_number(row.min).c_str(), json_number(row.med).c_str(),
                  json_number(row.max).c_str(),
                  static_cast<unsigned long long>(row.samples));
    }
    std::printf("\n");
  }
  const double error_rate =
      attempted_ > 0 ? static_cast<double>(failed_) /
                           static_cast<double>(attempted_)
                     : 0.0;
  std::printf("# ops attempted=%llu failed=%llu error_rate=%s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              json_number(error_rate).c_str());
  for (const auto& [key, value] : notes_) {
    std::printf("# %s=%s\n", key.c_str(), value.c_str());
  }
  for (const std::string& why : invalid_) {
    std::printf("# invalid: %s\n", why.c_str());
  }

  const auto append_row = [](std::string& out, const Row& row, bool full) {
    json_append_escaped(out, row.name);
    out += ":{\"value\":" + json_number(row.value) + ",\"unit\":";
    json_append_escaped(out, row.unit);
    if (full && row.end_to_end) {
      out += ",\"min\":" + json_number(row.min) +
             ",\"median\":" + json_number(row.med) +
             ",\"max\":" + json_number(row.max) +
             ",\"n\":" + std::to_string(row.samples);
    }
    out += '}';
  };

  if (!out_path.empty()) {
    std::string doc = "{\"workload\":";
    json_append_escaped(doc, workload_);
    doc += ",\"trace\":" + std::string(trace_ ? "true" : "false");
    doc += ",\"seconds\":" + json_number(seconds_);
    doc += ",\"host\":{";
    for (std::size_t i = 0; i < host.size(); ++i) {
      if (i > 0) doc += ',';
      json_append_escaped(doc, host[i].first);
      doc += ':';
      json_append_escaped(doc, host[i].second);
    }
    doc += "},\"notes\":{";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      if (i > 0) doc += ',';
      json_append_escaped(doc, notes_[i].first);
      doc += ':';
      json_append_escaped(doc, notes_[i].second);
    }
    doc += "},\"checks\":[";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      if (i > 0) doc += ',';
      doc += "{\"check\":";
      json_append_escaped(doc, checks_[i].first);
      doc += ",\"ok\":" + std::string(checks_[i].second ? "true" : "false");
      doc += '}';
    }
    doc += "],\"invalid\":[";
    for (std::size_t i = 0; i < invalid_.size(); ++i) {
      if (i > 0) doc += ',';
      json_append_escaped(doc, invalid_[i]);
    }
    doc += "],\"valid\":" + std::string(invalid_.empty() ? "true" : "false");
    doc += ",\"attempted\":" + std::to_string(attempted_);
    doc += ",\"failed\":" + std::to_string(failed_);
    doc += ",\"error_rate\":" + json_number(error_rate);
    doc += ",\"correct\":" + std::string(correct() ? "true" : "false");
    doc += ",\"metrics\":{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) doc += ',';
      append_row(doc, rows_[i], true);
    }
    doc += "}}\n";
    std::ofstream file(out_path);
    if (!file || !(file << doc)) {
      throw std::runtime_error("cannot write " + out_path);
    }
  }

  std::string last = "{\"correct\":";
  last += correct() ? "true" : "false";
  last += ",\"attempted\":" + std::to_string(attempted_);
  last += ",\"failed\":" + std::to_string(failed_);
  last += ",\"metrics\":{";
  bool first = true;
  for (const Row& row : rows_) {
    if (row.end_to_end == trace_) continue;
    if (!first) last += ',';
    first = false;
    append_row(last, row, false);
  }
  last += "}}";
  std::printf("%s\n", last.c_str());
  std::fflush(stdout);
}

}  // namespace chameleon::bench
