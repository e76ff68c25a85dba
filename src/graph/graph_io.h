#ifndef MINTRI_GRAPH_GRAPH_IO_H_
#define MINTRI_GRAPH_GRAPH_IO_H_

#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "graph/graph.h"

namespace mintri {

/// The most vertices an input file may declare, shared by the .gr, .hg and
/// .uai readers. Graph's adjacency is dense (n rows of n bits, n²/8 bytes),
/// so 2^16 vertices is 512 MiB; a larger size field is rejected before
/// anything is allocated for it.
inline constexpr int kMaxInputVertices = 1 << 16;

/// True iff a declared vertex count `n` is at most kMaxInputVertices.
/// Otherwise *error (when non-null) names the count and the limit.
bool WithinInputVertexLimit(long long n, std::string* error);

/// Parses the PACE / DIMACS ".gr" format:
///   c comment lines
///   p tw <n> <m>
///   <u> <v>            (1-based vertex ids)
/// Returns std::nullopt on malformed input, and on n > kMaxInputVertices
/// with *error (when non-null) naming the limit.
std::optional<Graph> ParseDimacs(std::istream& in,
                                 std::string* error = nullptr);
std::optional<Graph> ParseDimacsString(const std::string& text);

/// Writes the graph in the same format.
void WriteDimacs(const Graph& g, std::ostream& out);

}  // namespace mintri

#endif  // MINTRI_GRAPH_GRAPH_IO_H_
