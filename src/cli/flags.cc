#include "cli/flags.h"

#include <cerrno>
#include <climits>
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

bool ParseNumber(const std::string& value, int* out) {
  long long wide;
  if (!ParseNumber(value, &wide) || wide < INT_MIN || wide > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(wide);
  return true;
}

bool ParseNumber(const std::string& value, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(value.c_str(), &end);
  return end != value.c_str() && *end == '\0' && errno != ERANGE;
}

bool ParseCount(const std::string& value, long long* out) {
  return ParseNumber(value, out) && *out >= 1;
}

bool ParseSeconds(const std::string& value, double* out) {
  return ParseNumber(value, out) && *out > 0;
}

bool ParseThreads(const std::string& value, int* out) {
  long long wide;
  if (!ParseNumber(value, &wide) || wide < 1 ||
      wide > parallel::kMaxRunThreads) {
    return false;
  }
  *out = static_cast<int>(wide);
  return true;
}

long long MaxThreads() { return parallel::kMaxRunThreads; }

}  // namespace flags
}  // namespace mintri
