#pragma once

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace dsf::cli {

/// The typed flag error: everything a *user* can cause from the command
/// line — unknown options, values that do not parse as the declared type,
/// and values that parse but overflow the type (`--peers
/// 99999999999999999999` used to escape as an uncaught std::out_of_range
/// from std::stoll).  Drivers catch this one type and exit with the usage
/// status; it remains a std::invalid_argument so existing handlers keep
/// working.  Programming errors (reading an undeclared flag) stay
/// std::logic_error and are *not* FlagError.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The command-line tokenizer under cli::FlagRegistry: GNU-style
/// `--key value` / `--key=value` options plus bare positional arguments.
/// Values stay strings (the registry parses them as the declared type);
/// keys never read are collected so the registry can reject typos with a
/// helpful message instead of silently ignoring them.
class Args {
 public:
  /// Tokenizes argv.  Never throws: an option with no value reads as
  /// "true".
  Args(int argc, const char* const* argv);

  /// The positional (non-option) arguments, in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Raw string value (nullopt if absent); marks the key recognized.
  std::optional<std::string> get(const std::string& key) const;

  /// The keys no get() has read, in key order.
  std::vector<std::string> unrecognized() const;

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> recognized_;
};

}  // namespace dsf::cli
