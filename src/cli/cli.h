#ifndef MINTRI_CLI_CLI_H_
#define MINTRI_CLI_CLI_H_

#include <istream>
#include <ostream>
#include <string>
#include <vector>

namespace mintri {

/// The `mintri` command line, as a testable function: `args` are the
/// arguments after the program name, `in` is the instance when none is
/// named.
///
///   mintri [rank] [options] [instance]          ranked minimal triangulations
///   mintri batch <file-of-instances> [options]  one JSON record per instance
///   mintri bench [suite...] [options]           the BENCH_core.json report
///
/// `mintri --help`, `mintri batch --help` and `mintri bench --help` list
/// each subcommand's options, costs and suites. Returns the process exit
/// code: 0 on success, 1 on usage or input errors, 2 when rank's
/// initialization exceeds its limits or some batch instance did not rank.
int RunCli(const std::vector<std::string>& args, std::istream& in,
           std::ostream& out, std::ostream& err);

}  // namespace mintri

#endif  // MINTRI_CLI_CLI_H_
