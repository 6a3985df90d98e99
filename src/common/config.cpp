#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace chameleon {
namespace {

std::string to_env_name(std::string_view key) {
  std::string name = "CHAMELEON_";
  for (const char c : key) {
    name += (c == '.' || c == '-')
                ? '_'
                : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return name;
}

bool parse_bool(const std::string& v) {
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Config: not a boolean: " + v);
}

}  // namespace

void Config::parse_args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view tok = argv[i];
    tok.remove_prefix(std::min(tok.find_first_not_of('-'), tok.size()));
    const auto eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("Config: expected key=value, got '" +
                                  std::string(argv[i]) + "'");
    }
    set(std::string(tok.substr(0, eq)), std::string(tok.substr(eq + 1)));
  }
}

void Config::set(std::string key, std::string value) {
  values_[std::move(key)] = std::move(value);
}

std::optional<std::string> Config::get(std::string_view key) const {
  read_.emplace(key);
  if (auto env = from_env(key)) return env;
  if (const auto it = values_.find(key); it != values_.end()) return it->second;
  return std::nullopt;
}

std::string Config::get_string(std::string_view key, std::string_view def) const {
  if (auto v = get(key)) return *v;
  return std::string(def);
}

std::int64_t Config::get_int(std::string_view key, std::int64_t def) const {
  if (auto v = get(key)) return std::stoll(*v);
  return def;
}

double Config::get_double(std::string_view key, double def) const {
  if (auto v = get(key)) return std::stod(*v);
  return def;
}

bool Config::get_bool(std::string_view key, bool def) const {
  if (auto v = get(key)) return parse_bool(*v);
  return def;
}

bool Config::contains(std::string_view key) const {
  return get(key).has_value();
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!read_.contains(key)) out.push_back(key);
  }
  return out;
}

std::optional<std::string> Config::from_env(std::string_view key) {
  const std::string name = to_env_name(key);
  if (const char* v = std::getenv(name.c_str()); v != nullptr && *v != '\0') {
    return std::string(v);
  }
  return std::nullopt;
}

double scale_from_env(double def) {
  if (auto v = Config::from_env("scale")) return std::stod(*v);
  return def;
}

}  // namespace chameleon
