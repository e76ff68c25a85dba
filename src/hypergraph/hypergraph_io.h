#ifndef MINTRI_HYPERGRAPH_HYPERGRAPH_IO_H_
#define MINTRI_HYPERGRAPH_HYPERGRAPH_IO_H_

#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "hypergraph/hypergraph.h"

namespace mintri {

/// Parses the ".hg" edge-list format (the hypergraph analogue of PACE .gr,
/// used by `mintri rank --cost=hypertree|fhw` and `mintri batch`):
///   c comment lines
///   p hg <n> <m>
///   <v1> <v2> ... <vk>     (one hyperedge per line, 1-based vertex ids)
/// Exactly m hyperedge lines must follow the problem line; empty or
/// duplicate vertices within a line are rejected. Returns std::nullopt on
/// malformed input, and on n > kMaxInputVertices (graph_io.h) with *error
/// (when non-null) naming the limit.
std::optional<Hypergraph> ParseHypergraph(std::istream& in,
                                          std::string* error = nullptr);
std::optional<Hypergraph> ParseHypergraphString(const std::string& text);

/// Writes the hypergraph in the same format.
void WriteHypergraph(const Hypergraph& h, std::ostream& out);

}  // namespace mintri

#endif  // MINTRI_HYPERGRAPH_HYPERGRAPH_IO_H_
