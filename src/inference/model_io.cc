#include "inference/model_io.h"

#include <algorithm>
#include <sstream>

#include "graph/graph_io.h"

namespace mintri {

namespace {

// Strips '#'-comment lines so the token stream below only sees data. The
// UAI competition files are whitespace-separated tokens; line structure
// carries no meaning beyond comments.
std::string StripComments(std::istream& in) {
  std::string out, line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') continue;
    out += line;
    out += '\n';
  }
  return out;
}

constexpr size_t kMaxTableSize = size_t{1} << 28;  // ~256M entries

}  // namespace

Graph GraphicalModel::MarkovGraph() const {
  Graph g(static_cast<int>(domains.size()));
  for (const Factor& f : factors) {
    for (size_t i = 0; i < f.scope.size(); ++i) {
      for (size_t j = i + 1; j < f.scope.size(); ++j) {
        g.AddEdge(f.scope[i], f.scope[j]);
      }
    }
  }
  return g;
}

std::vector<double> GraphicalModel::DomainsAsWeights() const {
  return std::vector<double>(domains.begin(), domains.end());
}

std::optional<GraphicalModel> ParseUaiModel(std::istream& in,
                                            std::string* error) {
  std::istringstream ts(StripComments(in));
  std::string kind;
  if (!(ts >> kind) || (kind != "MARKOV" && kind != "BAYES")) {
    return std::nullopt;
  }
  long long n = 0;
  if (!(ts >> n) || n < 0 || !WithinInputVertexLimit(n, error)) {
    return std::nullopt;
  }
  GraphicalModel model;
  model.domains.resize(static_cast<size_t>(n));
  for (int& d : model.domains) {
    if (!(ts >> d) || d < 1) return std::nullopt;
  }
  int m = 0;
  if (!(ts >> m) || m < 0) return std::nullopt;

  // Scope lines: the listed order defines the table layout (last variable
  // fastest); remember it so the table blocks can be re-indexed into the
  // ascending row-major layout Factor requires.
  std::vector<std::vector<int>> raw_scopes;
  for (int i = 0; i < m; ++i) {
    std::vector<int>& scope = raw_scopes.emplace_back();
    int k = 0;
    if (!(ts >> k)) {
      if (error != nullptr) {
        *error = "declares " + std::to_string(m) +
                 " factors but lists only " + std::to_string(i);
      }
      return std::nullopt;
    }
    if (k < 0 || k > n) return std::nullopt;
    scope.resize(k);
    for (int& v : scope) {
      if (!(ts >> v) || v < 0 || v >= n) return std::nullopt;
    }
    std::vector<int> sorted = scope;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return std::nullopt;
    }
  }

  for (const std::vector<int>& raw : raw_scopes) {
    size_t expected = 1;
    for (int v : raw) {
      const size_t d = static_cast<size_t>(model.domains[v]);
      if (expected > kMaxTableSize / d) return std::nullopt;
      expected *= d;
    }
    long long t = 0;
    if (!(ts >> t) || t < 0 || static_cast<size_t>(t) != expected) {
      return std::nullopt;
    }
    // Read the block before sizing the table, so a declared size the input
    // does not back allocates nothing.
    std::vector<double> raw_table;
    for (size_t idx = 0; idx < expected; ++idx) {
      double value = 0;
      if (!(ts >> value) || value < 0) return std::nullopt;
      raw_table.push_back(value);
    }
    Factor f;
    f.scope = raw;
    std::sort(f.scope.begin(), f.scope.end());
    if (f.scope == raw) {
      // Already in the ascending layout (always so for WriteUaiModel output).
      f.table = std::move(raw_table);
      model.factors.push_back(std::move(f));
      continue;
    }
    f.table.assign(expected, 0.0);
    // raw_pos[k] = position in `raw` of the k-th ascending scope variable
    // (loop-invariant across the table walk).
    std::vector<size_t> raw_pos(f.scope.size());
    for (size_t k = 0; k < f.scope.size(); ++k) {
      raw_pos[k] =
          std::find(raw.begin(), raw.end(), f.scope[k]) - raw.begin();
    }
    // Walk the raw-order table; mixed-radix counter in raw order (last
    // listed variable fastest), re-addressed into the ascending layout.
    std::vector<int> assignment(raw.size(), 0);
    for (size_t idx = 0; idx < expected; ++idx) {
      const double value = raw_table[idx];
      size_t sorted_idx = 0;
      for (size_t k = 0; k < f.scope.size(); ++k) {
        sorted_idx =
            sorted_idx * static_cast<size_t>(model.domains[f.scope[k]]) +
            static_cast<size_t>(assignment[raw_pos[k]]);
      }
      f.table[sorted_idx] = value;
      for (int i = static_cast<int>(raw.size()) - 1; i >= 0; --i) {
        if (++assignment[i] < model.domains[raw[i]]) break;
        assignment[i] = 0;
      }
    }
    model.factors.push_back(std::move(f));
  }
  return model;
}

std::optional<GraphicalModel> ParseUaiModelString(const std::string& text) {
  std::istringstream in(text);
  return ParseUaiModel(in);
}

void WriteUaiModel(const GraphicalModel& m, std::ostream& out) {
  out.precision(17);  // round-trip exactly through the decimal form
  out << "MARKOV\n" << m.domains.size() << "\n";
  for (size_t v = 0; v < m.domains.size(); ++v) {
    out << (v > 0 ? " " : "") << m.domains[v];
  }
  out << "\n" << m.factors.size() << "\n";
  for (const Factor& f : m.factors) {
    out << f.scope.size();
    for (int v : f.scope) out << " " << v;
    out << "\n";
  }
  for (const Factor& f : m.factors) {
    out << f.table.size();
    for (double v : f.table) out << " " << v;
    out << "\n";
  }
}

}  // namespace mintri
