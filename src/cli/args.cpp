#include "cli/args.h"

namespace dsf::cli {

namespace {

bool is_long_option(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

// Exactly `-c` for one alphabetic character.  Restricting to letters keeps
// negative numbers (`--offset -5`) parsing as values, not flags.
bool is_short_option(const std::string& arg) {
  return arg.size() == 2 && arg[0] == '-' &&
         ((arg[1] >= 'a' && arg[1] <= 'z') ||
          (arg[1] >= 'A' && arg[1] <= 'Z'));
}

bool is_option(const std::string& arg) {
  return is_long_option(arg) || is_short_option(arg);
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!is_option(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(is_long_option(arg) ? 2 : 1);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--flag` followed by another option or nothing is a boolean flag;
    // otherwise the next token is its value.
    if (i + 1 < argc && !is_option(argv[i + 1])) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "true";
    }
  }
}

std::optional<std::string> Args::get(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return std::nullopt;
  recognized_.insert(key);
  return it->second;
}

std::vector<std::string> Args::unrecognized() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : options_)
    if (recognized_.count(key) == 0) out.push_back(key);
  return out;
}

}  // namespace dsf::cli
