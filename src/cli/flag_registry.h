#pragma once

// FlagRegistry: the declarative command-line surface shared by the driver
// and the benches.  Every flag is declared exactly once — name, type,
// default, help text — and the registry derives everything that used to
// be hand-rolled per tool: the `--help` reference, typed accessors with
// defaults, and rejection of undeclared options with a nearest-match
// suggestion (a typo like `--fault-drp` used to pass silently; now it
// exits with "did you mean --fault-drop?").
//
// The registry layers on cli::Args (the GNU-style tokenizer), which keeps
// positional arguments and `--key=value` handling in one place.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/args.h"

namespace dsf::cli {

/// Thrown by parse() for an option no flag declares.  The message names
/// the closest declared flag when one is plausibly intended.  A FlagError
/// like every other user-caused parse failure, so drivers can catch the
/// whole family with one handler and exit with the usage status.
class UnknownFlag : public FlagError {
 public:
  using FlagError::FlagError;
};

/// Edit distance used for the typo suggestion (exposed for tests).
std::size_t edit_distance(const std::string& a, const std::string& b);

class FlagRegistry {
 public:
  /// `program` and `summary` head the generated --help text.
  explicit FlagRegistry(std::string program, std::string summary = "");

  /// Starts a titled group; subsequent declarations belong to it.
  FlagRegistry& group(std::string title);

  FlagRegistry& add_string(const std::string& name, std::string def,
                           std::string help);
  FlagRegistry& add_int(const std::string& name, std::int64_t def,
                        std::string help);
  FlagRegistry& add_double(const std::string& name, double def,
                           std::string help);
  FlagRegistry& add_bool(const std::string& name, bool def, std::string help);

  /// Drops `name` from the --help listing (bulk-generated families like
  /// the 27 per-type fault overrides document themselves as one line via
  /// note() instead).  The flag still parses normally.
  FlagRegistry& hide(const std::string& name);

  /// Adds one free-form line under the current group in --help.
  FlagRegistry& note(std::string text);

  /// Tokenizes argv and binds values.  Throws UnknownFlag for an
  /// undeclared option (with a suggestion) and FlagError for a value that
  /// does not parse as — or overflow — the declared type.  `--help` is
  /// always declared; test help_requested() before reading flags.
  const Args& parse(int argc, const char* const* argv);

  bool help_requested() const noexcept { return help_requested_; }
  /// The generated flag reference (usage line, groups, defaults).
  std::string help() const;

  /// Typed accessors: the bound value, or the declared default.  Throw
  /// std::logic_error for an undeclared name (a programming error) and
  /// FlagError for a type mismatch or an out-of-range value.
  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// True when the flag appeared on the command line — lets "specific
  /// wins over generic" logic distinguish an explicit value from a
  /// default.
  bool was_set(const std::string& name) const;

  /// The underlying tokenizer (for positional arguments).  Valid after
  /// parse().
  const Args& args() const { return *args_; }

 private:
  enum class Type : std::uint8_t { kString, kInt, kDouble, kBool };

  struct Flag {
    std::string name;
    Type type = Type::kString;
    std::string help;
    std::size_t group = 0;
    bool hidden = false;
    // Typed defaults (only the declared type's slot is meaningful).
    std::string def_string;
    std::int64_t def_int = 0;
    double def_double = 0.0;
    bool def_bool = false;
    // Bound state, filled by parse().
    bool set = false;
    std::string value;
  };

  struct Group {
    std::string title;
    std::vector<std::string> notes;
  };

  Flag& declare(const std::string& name, Type type, std::string help);
  const Flag& find(const std::string& name) const;
  std::string suggest(const std::string& key) const;

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<Group> groups_;
  std::optional<Args> args_;
  bool help_requested_ = false;
};

}  // namespace dsf::cli
