// Minimal command-line flag parsing for examples and bench drivers.
//
// Supports `--name value`, `--name=value`, and boolean `--name`. Unknown
// flags are an error so typos surface immediately.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace fullweb::support {

class CliFlags {
 public:
  /// Declare a flag with a default value and help text. Call before parse().
  void define(const std::string& name, const std::string& default_value,
              const std::string& help);

  /// Parse argv. Returns false (and prints usage to stderr) on unknown flags
  /// or missing values. `--help` prints usage and returns false as well.
  bool parse(int argc, const char* const* argv);

  /// get() throws std::invalid_argument for a flag that was never defined
  /// (a programmer error). get_int/get_double/get_count print a usage error
  /// naming the flag and its value and exit with status 2 when the value
  /// does not parse as the requested kind (a user error). get_count reads a
  /// count (threads, repetitions, shards): an integer that must also be at
  /// least `min`, so a negative value never wraps to a huge size.
  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] std::size_t get_count(const std::string& name,
                                      std::size_t min = 0) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  void print_usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace fullweb::support
