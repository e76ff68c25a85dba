#ifndef MINTRI_INFERENCE_MODEL_IO_H_
#define MINTRI_INFERENCE_MODEL_IO_H_

#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "inference/factor.h"

namespace mintri {

/// A discrete graphical model as loaded from disk (or synthesized by the
/// workload generators): per-variable domain sizes plus a factor list. The
/// instance type behind the `state-space` application cost.
struct GraphicalModel {
  std::vector<int> domains;     // domains[v] >= 1 per variable
  std::vector<Factor> factors;  // scopes index into domains

  /// The moral (Markov) graph: variables sharing a factor are adjacent.
  /// Tree decompositions of this graph are exactly the junction trees the
  /// state-space cost ranks.
  Graph MarkovGraph() const;

  /// Domain sizes as doubles (the TotalStateSpaceCost constructor input).
  std::vector<double> DomainsAsWeights() const;
};

/// Parses the simple UAI-style factor-list format:
///   MARKOV                     (or BAYES; a '#' line is a comment)
///   <n>
///   <d1> ... <dn>              (domain sizes)
///   <m>
///   <k> <v1> ... <vk>          (m scope lines, 0-based variable ids)
///   <t> <e1> ... <et>          (m table blocks, t = product of the scope's
///                               domains; the LAST listed variable advances
///                               fastest, as in the UAI competition format)
/// Scopes may list variables in any order; tables are re-indexed into the
/// library's ascending-scope row-major layout. Returns std::nullopt on
/// malformed input (bad counts, out-of-range ids, duplicate scope entries,
/// table-size mismatches, or negative table entries). When the failure is a
/// size field (n > kMaxInputVertices from graph_io.h, or more factors
/// declared than listed), *error (when non-null) says so. The factor count
/// and table sizes only bound how much is read: storage grows with the data
/// actually present. A table whose scope is listed out of ascending order is
/// read into a buffer and then re-indexed into a second one, so it briefly
/// takes up to about three times its final size; an ascending scope keeps
/// the buffer as the table.
std::optional<GraphicalModel> ParseUaiModel(std::istream& in,
                                            std::string* error = nullptr);
std::optional<GraphicalModel> ParseUaiModelString(const std::string& text);

/// Writes the model in the same format (scopes ascending).
void WriteUaiModel(const GraphicalModel& m, std::ostream& out);

}  // namespace mintri

#endif  // MINTRI_INFERENCE_MODEL_IO_H_
