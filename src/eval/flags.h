#ifndef DCMT_EVAL_FLAGS_H_
#define DCMT_EVAL_FLAGS_H_

// Tiny argv flag parser shared by the paper-reproduction harnesses and the
// command-line tools.
// Supports --name=value and --name value forms. An unknown flag, or a value
// that GetInt/GetPositiveInt/GetDouble cannot parse in full or rejects,
// exits with status 2 and the accepted list, so harnesses stay
// self-documenting and never run on a half-parsed number.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace dcmt {
namespace eval {

class Flags {
 public:
  /// `spec` maps flag name -> default value (as string). Flags not in the
  /// spec are rejected.
  Flags(int argc, char** argv, std::map<std::string, std::string> spec)
      : defaults_(spec), values_(std::move(spec)) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) Die(arg);
      arg = arg.substr(2);
      std::string value;
      const std::size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      } else if (i + 1 < argc) {
        value = argv[++i];
      }
      if (values_.find(arg) == values_.end()) Die("--" + arg);
      values_[arg] = value;
    }
  }

  std::string Get(const std::string& name) const { return values_.at(name); }
  int GetInt(const std::string& name) const {
    int value = 0;
    if (!ParseWhole(values_.at(name), &value)) DieBadValue(name, "an integer");
    return value;
  }
  /// GetInt for a value that must be > 0, such as a batch size.
  int GetPositiveInt(const std::string& name) const {
    const int value = GetInt(name);
    if (value <= 0) DieBadValue(name, "a positive integer");
    return value;
  }
  double GetDouble(const std::string& name) const {
    double value = 0.0;
    if (!ParseWhole(values_.at(name), &value) || !std::isfinite(value)) {
      DieBadValue(name, "a finite number");
    }
    return value;
  }
  std::vector<std::string> GetList(const std::string& name) const {
    std::vector<std::string> out;
    std::stringstream ss(values_.at(name));
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) out.push_back(item);
    }
    return out;
  }

 private:
  /// True iff all of `text` is one number that fits in `*out`.
  template <typename T>
  static bool ParseWhole(const std::string& text, T* out) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return !text.empty() && ec == std::errc() && ptr == end;
  }

  [[noreturn]] void Die(const std::string& arg) const {
    std::fprintf(stderr, "unknown flag %s; accepted flags:\n", arg.c_str());
    ListFlagsAndExit();
  }

  [[noreturn]] void DieBadValue(const std::string& name,
                                const char* expected) const {
    std::fprintf(stderr, "invalid value '%s' for --%s (expected %s); accepted flags:\n",
                 values_.at(name).c_str(), name.c_str(), expected);
    ListFlagsAndExit();
  }

  [[noreturn]] void ListFlagsAndExit() const {
    for (const auto& [k, v] : defaults_) {
      std::fprintf(stderr, "  --%s (default: %s)\n", k.c_str(), v.c_str());
    }
    std::exit(2);
  }

  const std::map<std::string, std::string> defaults_;
  std::map<std::string, std::string> values_;
};

}  // namespace eval
}  // namespace dcmt

#endif  // DCMT_EVAL_FLAGS_H_
