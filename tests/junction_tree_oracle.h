#ifndef MINTRI_TESTS_JUNCTION_TREE_ORACLE_H_
#define MINTRI_TESTS_JUNCTION_TREE_ORACLE_H_

// Test oracle for the state-space cost: exact sum-product inference over a
// junction tree (Lauritzen & Spiegelhalter, cited as [29] by the paper),
// plus a brute-force reference over all assignments. Its total clique-table
// size is exactly TotalStateSpaceCost of the decomposition it runs on, and
// its answers must not depend on which proper decomposition it is given.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "enumeration/tree_decomposition.h"
#include "inference/factor.h"

namespace mintri {
namespace testutil {

namespace oracle_internal {

inline size_t TableSize(const std::vector<int>& scope,
                        const std::vector<int>& domains) {
  size_t s = 1;
  for (int v : scope) s *= static_cast<size_t>(domains[v]);
  return s;
}

// Index of the sub-assignment of `scope` within a full assignment over
// `vars` (both ascending; scope ⊆ vars).
inline size_t SubIndex(const std::vector<int>& scope,
                       const std::vector<int>& vars,
                       const std::vector<int>& assignment,
                       const std::vector<int>& domains) {
  size_t index = 0;
  size_t vi = 0;
  for (int v : scope) {
    while (vars[vi] != v) ++vi;
    index = index * static_cast<size_t>(domains[v]) +
            static_cast<size_t>(assignment[vi]);
  }
  return index;
}

}  // namespace oracle_internal

/// Pointwise product; the result's scope is the union of the scopes.
inline Factor Multiply(const Factor& a, const Factor& b,
                       const std::vector<int>& domains) {
  using oracle_internal::SubIndex;
  Factor out;
  std::set_union(a.scope.begin(), a.scope.end(), b.scope.begin(),
                 b.scope.end(), std::back_inserter(out.scope));
  out.table.assign(oracle_internal::TableSize(out.scope, domains), 0.0);

  std::vector<int> assignment(out.scope.size(), 0);
  for (size_t idx = 0; idx < out.table.size(); ++idx) {
    out.table[idx] =
        a.table[SubIndex(a.scope, out.scope, assignment, domains)] *
        b.table[SubIndex(b.scope, out.scope, assignment, domains)];
    // Increment the mixed-radix assignment (last variable fastest).
    for (int i = static_cast<int>(out.scope.size()) - 1; i >= 0; --i) {
      if (++assignment[i] < domains[out.scope[i]]) break;
      assignment[i] = 0;
    }
  }
  return out;
}

/// Sums out every variable not in `keep` (keep need not be a subset of the
/// scope; extraneous variables are ignored).
inline Factor MarginalizeTo(const Factor& f, const std::vector<int>& keep,
                            const std::vector<int>& domains) {
  Factor out;
  for (int v : f.scope) {
    if (std::binary_search(keep.begin(), keep.end(), v)) {
      out.scope.push_back(v);
    }
  }
  out.table.assign(oracle_internal::TableSize(out.scope, domains), 0.0);

  std::vector<int> assignment(f.scope.size(), 0);
  for (size_t idx = 0; idx < f.table.size(); ++idx) {
    out.table[oracle_internal::SubIndex(out.scope, f.scope, assignment,
                                        domains)] += f.table[idx];
    for (int i = static_cast<int>(f.scope.size()) - 1; i >= 0; --i) {
      if (++assignment[i] < domains[f.scope[i]]) break;
      assignment[i] = 0;
    }
  }
  return out;
}

/// Sum of all table entries.
inline double TotalMass(const Factor& f) {
  double s = 0;
  for (double v : f.table) s += v;
  return s;
}

/// Exact inference over a discrete graphical model: domains[v] >= 1 per
/// variable, and a list of factors whose scopes index into domains.
class JunctionTreeInference {
 public:
  JunctionTreeInference(std::vector<int> domains, std::vector<Factor> factors)
      : domains_(std::move(domains)), factors_(std::move(factors)) {}

  struct Result {
    double partition_function = 0;
    /// marginals[v][x] = P(v = x); normalized.
    std::vector<std::vector<double>> marginals;
    /// Total clique-table entries touched — the decomposition's cost.
    double total_table_entries = 0;
    /// True when the partition function is zero (every assignment has weight
    /// zero, e.g. an all-zero factor): no distribution exists, so the
    /// marginals are left all-zero rather than silently presented as
    /// probabilities. Also set by BruteForce() when a factor's table size
    /// does not match its scope (the flat index would read out of bounds).
    bool degenerate = false;
  };

  /// Two-pass message passing over `td`, which must be a valid tree
  /// decomposition of the model's Markov graph. Returns std::nullopt when
  /// some factor scope fits in no bag (i.e., td is not a decomposition of
  /// the model) or a factor's table size disagrees with its scope's domains
  /// (indexing it would read out of bounds).
  std::optional<Result> Run(const TreeDecomposition& td) const {
    const int k = static_cast<int>(td.bags.size());
    const int n = static_cast<int>(domains_.size());
    if (k == 0) return std::nullopt;
    if (!FactorTablesMatchScopes()) return std::nullopt;

    // Assign each factor to some bag containing its scope.
    std::vector<Factor> potentials;
    potentials.reserve(k);
    std::vector<std::vector<int>> bag_scopes(k);
    for (int b = 0; b < k; ++b) {
      bag_scopes[b] = td.bags[b].ToVector();  // ascending
      potentials.push_back(Factor::Ones(bag_scopes[b], domains_));
    }
    for (const Factor& f : factors_) {
      int host = -1;
      for (int b = 0; b < k && host < 0; ++b) {
        bool inside = true;
        for (int v : f.scope) {
          if (!td.bags[b].Contains(v)) inside = false;
        }
        if (inside) host = b;
      }
      if (host < 0) return std::nullopt;  // scope uncovered
      potentials[host] = Multiply(potentials[host], f, domains_);
    }

    // Root the tree (forest) and order bags by decreasing depth.
    std::vector<std::vector<int>> adj(k);
    for (const auto& [a, b] : td.edges) {
      adj[a].push_back(b);
      adj[b].push_back(a);
    }
    std::vector<int> parent(k, -2), order;
    for (int root = 0; root < k; ++root) {
      if (parent[root] != -2) continue;
      parent[root] = -1;
      std::vector<int> stack = {root};
      while (!stack.empty()) {
        int u = stack.back();
        stack.pop_back();
        order.push_back(u);
        for (int v : adj[u]) {
          if (parent[v] == -2) {
            parent[v] = u;
            stack.push_back(v);
          }
        }
      }
    }

    Result result;
    for (int b = 0; b < k; ++b) {
      result.total_table_entries +=
          static_cast<double>(potentials[b].table.size());
    }

    // Upward pass (children to parents), in reverse BFS order.
    std::vector<Factor> up(k);  // message from b to parent[b]
    std::vector<Factor> collected = potentials;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      int b = *it;
      for (int c : adj[b]) {
        if (parent[c] == b) {
          collected[b] = Multiply(collected[b], up[c], domains_);
        }
      }
      if (parent[b] >= 0) {
        up[b] = MarginalizeTo(collected[b],
                              Adhesion(bag_scopes[b], bag_scopes[parent[b]]),
                              domains_);
      }
    }

    // Partition function from the roots (product across forest components).
    result.partition_function = 1.0;
    for (int b = 0; b < k; ++b) {
      if (parent[b] == -1) {
        result.partition_function *= TotalMass(collected[b]);
      }
    }
    result.degenerate = !(result.partition_function > 0);

    // Downward pass: belief(b) = collected(b) × message from parent, where
    // the parent's message excludes b's own upward contribution.
    std::vector<Factor> down(k);  // message from parent[b] into b
    std::vector<Factor> beliefs(k);
    for (int b : order) {
      beliefs[b] = parent[b] < 0 ? collected[b]
                                 : Multiply(collected[b], down[b], domains_);
      for (int c : adj[b]) {
        if (parent[c] != b) continue;
        // Belief of b divided by c's upward message, marginalized to the
        // adhesion. Division is numerically fragile; recompute instead:
        // product of potential, parent message, and the other children.
        Factor msg = potentials[b];
        if (parent[b] >= 0) msg = Multiply(msg, down[b], domains_);
        for (int c2 : adj[b]) {
          if (parent[c2] == b && c2 != c) {
            msg = Multiply(msg, up[c2], domains_);
          }
        }
        down[c] = MarginalizeTo(msg, Adhesion(bag_scopes[b], bag_scopes[c]),
                                domains_);
      }
    }

    // Per-variable marginals from any bag containing the variable.
    result.marginals.assign(n, {});
    for (int v = 0; v < n; ++v) {
      int host = -1;
      for (int b = 0; b < k && host < 0; ++b) {
        if (td.bags[b].Contains(v)) host = b;
      }
      if (host < 0) return std::nullopt;
      Factor m = MarginalizeTo(beliefs[host], {v}, domains_);
      double z = TotalMass(m);
      if (!(z > 0)) result.degenerate = true;
      result.marginals[v].resize(domains_[v]);
      for (int x = 0; x < domains_[v]; ++x) {
        result.marginals[v][x] = z > 0 ? m.table[x] / z : 0.0;
      }
    }
    return result;
  }

  /// Reference results by exhaustive enumeration over all assignments
  /// (exponential in the number of variables).
  Result BruteForce() const {
    const int n = static_cast<int>(domains_.size());
    Result result;
    result.marginals.assign(n, {});
    for (int v = 0; v < n; ++v) result.marginals[v].assign(domains_[v], 0.0);

    // Guard the flat-index computation: the index of a factor's table entry
    // is bounded by the product of its scope's domains, so a table whose
    // size disagrees would be read past the end. A mismatched model is
    // reported as degenerate (this signature has no failure channel).
    if (!FactorTablesMatchScopes()) {
      result.degenerate = true;
      return result;
    }

    std::vector<int> assignment(n, 0);
    while (true) {
      double weight = 1.0;
      for (const Factor& f : factors_) {
        size_t idx = 0;
        for (int v : f.scope) {
          idx = idx * static_cast<size_t>(domains_[v]) +
                static_cast<size_t>(assignment[v]);
        }
        weight *= f.table[idx];
      }
      result.partition_function += weight;
      for (int v = 0; v < n; ++v) result.marginals[v][assignment[v]] += weight;

      int i = n - 1;
      while (i >= 0 && ++assignment[i] == domains_[i]) assignment[i--] = 0;
      if (i < 0) break;
    }
    result.degenerate = !(result.partition_function > 0);
    for (int v = 0; v < n; ++v) {
      for (double& p : result.marginals[v]) {
        if (result.partition_function > 0) p /= result.partition_function;
      }
    }
    return result;
  }

 private:
  static std::vector<int> Adhesion(const std::vector<int>& a,
                                   const std::vector<int>& b) {
    std::vector<int> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
  }

  /// True iff every factor's table size equals the (overflow-checked)
  /// product of its scope's domains — the bound on every flat index the
  /// inference paths compute.
  bool FactorTablesMatchScopes() const {
    for (const Factor& f : factors_) {
      size_t expected = 1;
      for (int v : f.scope) {
        const size_t d = static_cast<size_t>(domains_[v]);
        if (d == 0 || expected > std::numeric_limits<size_t>::max() / d) {
          return false;
        }
        expected *= d;
      }
      if (expected != f.table.size()) return false;
    }
    return true;
  }

  std::vector<int> domains_;
  std::vector<Factor> factors_;
};

}  // namespace testutil
}  // namespace mintri

#endif  // MINTRI_TESTS_JUNCTION_TREE_ORACLE_H_
