#ifndef MINTRI_CLI_FLAGS_H_
#define MINTRI_CLI_FLAGS_H_

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace mintri {
namespace flags {

/// Strict integer parsing: the whole string must parse (trailing garbage is
/// rejected), and out-of-range values are rejected instead of silently
/// saturating (strtoll's ERANGE clamp to LLONG_MAX).
bool ParseNumber(const std::string& value, long long* out);

/// Stores a flag's value into its target. Returns nullopt when the value is
/// accepted, else the text that follows "invalid value for --NAME: VALUE"
/// in the rejection.
using Setter = std::function<std::optional<std::string>(const std::string&)>;

/// The value rules rank, batch and bench share. Count: an integer >= 1.
/// Seconds: a number > 0 (NaN fails). Threads: an integer in
/// [1, kMaxRunThreads], the ceiling the parallel engines clamp to, checked
/// on the wide parse so 2^32+1 does not truncate to 1. OneOf: one of
/// `allowed`. Text: anything.
Setter Count(long long* out);
Setter Seconds(double* out);
Setter Threads(int* out);
Setter OneOf(std::string* out, std::vector<std::string> allowed);
Setter Text(std::string* out);

/// One row of a subcommand's flag table: `--name=VALUE` with a setter, or
/// the switch `--name` (no setter) that sets *on.
struct Flag {
  std::string name;
  Setter set;
  bool* on = nullptr;
};

/// rank's and batch's positional rule: one path; a second is an error.
Setter OnePath(std::string* path);

/// Parses a subcommand's arguments against its flag table. An argument
/// that does not start with '-' goes to `positional`, which returns nullopt
/// or the whole error line; `--help`/`-h` ask for `usage`; anything else
/// must match a row. Returns nullopt when the subcommand should run, else
/// its exit code: 1 after writing the first rejection to err as one line,
/// or 0 after writing `usage` to out when nothing was rejected.
std::optional<int> Parse(const std::vector<std::string>& args,
                         const std::vector<Flag>& table,
                         const Setter& positional, const char* usage,
                         std::ostream& out, std::ostream& err);

}  // namespace flags
}  // namespace mintri

#endif  // MINTRI_CLI_FLAGS_H_
