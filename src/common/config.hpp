// Lightweight key=value configuration with typed access and environment
// variable overrides (CHAMELEON_<KEY>). Used by benches and examples to
// expose experiment knobs without a heavyweight flags library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace chameleon {

class Config {
 public:
  Config() = default;

  /// Parse "key=value" tokens from argv[1..argc), so "--key=value" works
  /// too: leading dashes are stripped. A token without a key or '=' throws.
  void parse_args(int argc, const char* const* argv);
  void set(std::string key, std::string value);

  std::optional<std::string> get(std::string_view key) const;

  std::string get_string(std::string_view key, std::string_view def) const;
  std::int64_t get_int(std::string_view key, std::int64_t def) const;
  double get_double(std::string_view key, double def) const;
  bool get_bool(std::string_view key, bool def) const;

  bool contains(std::string_view key) const;
  const std::map<std::string, std::string, std::less<>>& entries() const {
    return values_;
  }

  /// Keys set() stored that no lookup (get*, contains) has asked for yet,
  /// ascending: the flags a tool ignored, e.g. a misspelt or retired one.
  /// Lookups are recorded, so a Config shared across threads needs a lock.
  std::vector<std::string> unread_keys() const;

  /// Environment override: CHAMELEON_FOO_BAR beats config key "foo_bar".
  static std::optional<std::string> from_env(std::string_view key);

 private:
  std::map<std::string, std::string, std::less<>> values_;
  mutable std::set<std::string, std::less<>> read_;
};

/// Global experiment scale factor (CHAMELEON_SCALE, default 0.1). Scales
/// request volume and dataset size together so GC pressure is invariant.
double scale_from_env(double def = 0.1);

}  // namespace chameleon
