#include "cli/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "parallel/thread_pool.h"

namespace mintri {
namespace flags {

bool ParseNumber(const std::string& value, long long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoll(value.c_str(), &end, 10);
  return end != value.c_str() && *end == '\0' && errno != ERANGE;
}

Setter Count(long long* out) {
  return [out](const std::string& value) -> std::optional<std::string> {
    if (ParseNumber(value, out) && *out >= 1) return std::nullopt;
    return " (expected an integer >= 1)";
  };
}

Setter Seconds(double* out) {
  return [out](const std::string& value) -> std::optional<std::string> {
    // As strict as ParseNumber; NaN fails the comparison.
    char* end = nullptr;
    errno = 0;
    *out = std::strtod(value.c_str(), &end);
    if (end != value.c_str() && *end == '\0' && errno != ERANGE && *out > 0) {
      return std::nullopt;
    }
    return " (expected a positive number of seconds)";
  };
}

Setter Threads(int* out) {
  return [out](const std::string& value) -> std::optional<std::string> {
    long long wide;
    if (!ParseNumber(value, &wide) || wide < 1 ||
        wide > parallel::kMaxRunThreads) {
      return " (expected an integer in 1.." +
             std::to_string(parallel::kMaxRunThreads) + ")";
    }
    *out = static_cast<int>(wide);
    return std::nullopt;
  };
}

Setter OneOf(std::string* out, std::vector<std::string> allowed) {
  // " (expected a or b)", " (expected a, b, or c)".
  std::string expected = " (expected " + allowed[0];
  for (size_t i = 1; i + 1 < allowed.size(); ++i) expected += ", " + allowed[i];
  expected += (allowed.size() > 2 ? ", or " : " or ") + allowed.back() + ")";
  return [=](const std::string& value) -> std::optional<std::string> {
    if (std::find(allowed.begin(), allowed.end(), value) == allowed.end()) {
      return expected;
    }
    *out = value;
    return std::nullopt;
  };
}

Setter Text(std::string* out) {
  return [out](const std::string& value) -> std::optional<std::string> {
    *out = value;
    return std::nullopt;
  };
}

Setter OnePath(std::string* path) {
  return [path](const std::string& arg) -> std::optional<std::string> {
    if (!path->empty()) return "unexpected argument: " + arg;
    *path = arg;
    return std::nullopt;
  };
}

std::optional<int> Parse(const std::vector<std::string>& args,
                         const std::vector<Flag>& table,
                         const Setter& positional, const char* usage,
                         std::ostream& out, std::ostream& err) {
  bool help = false;
  for (const std::string& arg : args) {
    std::optional<std::string> error;
    if (arg == "--help" || arg == "-h") {
      help = true;
    } else if (arg.empty() || arg[0] != '-') {
      error = positional(arg);
    } else {
      const size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      // A switch takes no value, a value flag requires one.
      const auto row = std::find_if(
          table.begin(), table.end(), [&](const Flag& flag) {
            return flag.name == name &&
                   (flag.on == nullptr) == (eq != std::string::npos);
          });
      if (row == table.end()) {
        error = "unknown option: " + arg;
      } else if (row->on != nullptr) {
        *row->on = true;
      } else if (std::optional<std::string> expected =
                     row->set(arg.substr(eq + 1))) {
        error = "invalid value for " + name + ": " + arg.substr(eq + 1) +
                *expected;
      }
    }
    if (error.has_value()) {
      err << *error << "\n";
      return 1;
    }
  }
  if (!help) return std::nullopt;
  out << usage;
  return 0;
}

}  // namespace flags
}  // namespace mintri
