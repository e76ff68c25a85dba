#ifndef MINTRI_CLI_FLAGS_H_
#define MINTRI_CLI_FLAGS_H_

#include <string>

namespace mintri {
namespace flags {

/// Strict numeric-flag parsing shared by every mintri subcommand (rank,
/// batch, bench), so `--threads=8abc` or an overflowing `--top=` behaves
/// identically everywhere: the whole string must parse (trailing garbage is
/// rejected), and out-of-range values are rejected instead of silently
/// saturating (strtoll's ERANGE clamp to LLONG_MAX) or truncating
/// (long long → int narrowing).
bool ParseNumber(const std::string& value, long long* out);
bool ParseNumber(const std::string& value, int* out);
bool ParseNumber(const std::string& value, double* out);

/// The rule every subcommand applies to result counts and time budgets: a
/// count (--top) is an integer >= 1, a budget (--time-limit, --deadline) a
/// number of seconds > 0. NaN fails the comparison and is rejected.
bool ParseCount(const std::string& value, long long* out);
bool ParseSeconds(const std::string& value, double* out);

/// A thread count must land in [1, MaxThreads()] — the same ceiling the
/// parallel engines clamp to, so --threads=N never lies about the worker
/// count. The range check runs on the wide parse (no silent int truncation
/// for values like 2^32+1).
bool ParseThreads(const std::string& value, int* out);
long long MaxThreads();

}  // namespace flags
}  // namespace mintri

#endif  // MINTRI_CLI_FLAGS_H_
