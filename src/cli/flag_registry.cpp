#include "cli/flag_registry.h"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace dsf::cli {

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Classic two-row Levenshtein; flag names are short, so O(|a||b|) is
  // nothing.
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  std::iota(prev.begin(), prev.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

FlagRegistry::FlagRegistry(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {
  groups_.push_back({"options", {}});
  add_bool("help", false, "print this flag reference and exit");
}

FlagRegistry& FlagRegistry::group(std::string title) {
  groups_.push_back({std::move(title), {}});
  return *this;
}

FlagRegistry::Flag& FlagRegistry::declare(const std::string& name, Type type,
                                          std::string help) {
  for (const Flag& f : flags_)
    if (f.name == name)
      throw std::logic_error("flag declared twice: --" + name);
  Flag f;
  f.name = name;
  f.type = type;
  f.help = std::move(help);
  f.group = groups_.size() - 1;
  flags_.push_back(std::move(f));
  return flags_.back();
}

FlagRegistry& FlagRegistry::add_string(const std::string& name,
                                       std::string def, std::string help) {
  declare(name, Type::kString, std::move(help)).def_string = std::move(def);
  return *this;
}

FlagRegistry& FlagRegistry::add_int(const std::string& name, std::int64_t def,
                                    std::string help) {
  declare(name, Type::kInt, std::move(help)).def_int = def;
  return *this;
}

FlagRegistry& FlagRegistry::add_double(const std::string& name, double def,
                                       std::string help) {
  declare(name, Type::kDouble, std::move(help)).def_double = def;
  return *this;
}

FlagRegistry& FlagRegistry::add_bool(const std::string& name, bool def,
                                     std::string help) {
  declare(name, Type::kBool, std::move(help)).def_bool = def;
  return *this;
}

FlagRegistry& FlagRegistry::hide(const std::string& name) {
  for (Flag& f : flags_) {
    if (f.name == name) {
      f.hidden = true;
      return *this;
    }
  }
  throw std::logic_error("hide of undeclared flag: --" + name);
}

FlagRegistry& FlagRegistry::note(std::string text) {
  groups_.back().notes.push_back(std::move(text));
  return *this;
}

std::string FlagRegistry::suggest(const std::string& key) const {
  std::string best;
  std::size_t best_dist = std::string::npos;
  for (const Flag& f : flags_) {
    const std::size_t d = edit_distance(key, f.name);
    if (d < best_dist) {
      best_dist = d;
      best = f.name;
    }
  }
  // Only suggest plausible typos: a third of the name's length, at least
  // two edits, so "--hours" never "suggests" something unrelated.
  const std::size_t cutoff = std::max<std::size_t>(2, key.size() / 3);
  return best_dist <= cutoff ? best : std::string();
}

const Args& FlagRegistry::parse(int argc, const char* const* argv) {
  args_.emplace(argc, argv);

  // Bind declared flags first, marking each one recognized in the
  // tokenizer.
  for (Flag& f : flags_) {
    if (const std::optional<std::string> v = args_->get(f.name)) {
      f.set = true;
      f.value = *v;
    }
  }

  // Anything left is undeclared: reject with a suggestion instead of the
  // old silent warning.
  const auto unknown = args_->unrecognized();
  if (!unknown.empty()) {
    const std::string& key = unknown.front();
    const std::string near = suggest(key);
    std::string msg = "unknown option --" + key;
    msg += near.empty() ? " (see --help)" : " (did you mean --" + near + "?)";
    throw UnknownFlag(msg);
  }

  help_requested_ = get_bool("help");

  // Eager type validation so a bad value fails up front, not at first use.
  for (const Flag& f : flags_) {
    if (!f.set) continue;
    switch (f.type) {
      case Type::kString: break;
      case Type::kInt: get_int(f.name); break;
      case Type::kDouble: get_double(f.name); break;
      case Type::kBool: get_bool(f.name); break;
    }
  }
  return *args_;
}

const FlagRegistry::Flag& FlagRegistry::find(const std::string& name) const {
  for (const Flag& f : flags_)
    if (f.name == name) return f;
  throw std::logic_error("undeclared flag read: --" + name);
}

std::string FlagRegistry::get_string(const std::string& name) const {
  const Flag& f = find(name);
  return f.set ? f.value : f.def_string;
}

std::int64_t FlagRegistry::get_int(const std::string& name) const {
  const Flag& f = find(name);
  if (!f.set) return f.def_int;
  // Distinguish "does not parse" from "parses but does not fit": the old
  // blanket catch folded std::out_of_range into "not an integer", which
  // told a user typing --peers 99999999999999999999 the wrong thing.
  std::size_t pos = 0;
  std::int64_t parsed = 0;
  try {
    parsed = std::stoll(f.value, &pos);
  } catch (const std::out_of_range&) {
    throw FlagError("--" + name + ": integer out of range: " + f.value);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != f.value.size())
    throw FlagError("--" + name + ": not an integer: " + f.value);
  return parsed;
}

double FlagRegistry::get_double(const std::string& name) const {
  const Flag& f = find(name);
  if (!f.set) return f.def_double;
  std::size_t pos = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(f.value, &pos);
  } catch (const std::out_of_range&) {
    throw FlagError("--" + name + ": number out of range: " + f.value);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  if (pos != f.value.size())
    throw FlagError("--" + name + ": not a number: " + f.value);
  return parsed;
}

bool FlagRegistry::get_bool(const std::string& name) const {
  const Flag& f = find(name);
  if (!f.set) return f.def_bool;
  const std::string& v = f.value;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw FlagError("--" + name + ": not a boolean: " + v);
}

bool FlagRegistry::was_set(const std::string& name) const {
  return find(name).set;
}

std::string FlagRegistry::help() const {
  std::string out = "usage: " + program_ + "\n";
  if (!summary_.empty()) out += summary_ + "\n";
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    std::string body;
    for (const Flag& f : flags_) {
      if (f.group != g || f.hidden) continue;
      std::string line = "  --" + f.name;
      switch (f.type) {
        case Type::kString:
          line += " S";
          break;
        case Type::kInt:
          line += " N";
          break;
        case Type::kDouble:
          line += " X";
          break;
        case Type::kBool:
          break;  // bare flag
      }
      if (line.size() < 28) line.resize(28, ' ');
      line += "  " + f.help;
      switch (f.type) {
        case Type::kString:
          if (!f.def_string.empty()) line += " (default " + f.def_string + ")";
          break;
        case Type::kInt:
          line += " (default " + std::to_string(f.def_int) + ")";
          break;
        case Type::kDouble: {
          char buf[32];
          std::snprintf(buf, sizeof buf, "%g", f.def_double);
          line += std::string(" (default ") + buf + ")";
          break;
        }
        case Type::kBool:
          if (f.def_bool) line += " (default on)";
          break;
      }
      body += line + "\n";
    }
    for (const std::string& n : groups_[g].notes) body += "  " + n + "\n";
    if (body.empty()) continue;
    out += "\n" + groups_[g].title + ":\n" + body;
  }
  return out;
}

}  // namespace dsf::cli
