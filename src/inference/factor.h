#ifndef MINTRI_INFERENCE_FACTOR_H_
#define MINTRI_INFERENCE_FACTOR_H_

#include <vector>

namespace mintri {

/// A discrete factor (potential) over a sorted scope of variables, with a
/// dense row-major table (scope[0] is the most significant digit of the
/// index): the payload of a GraphicalModel (model_io.h), whose domain sizes
/// the state-space cost ranks by.
struct Factor {
  std::vector<int> scope;     // variable ids, strictly ascending
  std::vector<double> table;  // size = Π domains[scope[i]]

  /// The constant-1 factor over `scope` (sorted ascending).
  static Factor Ones(std::vector<int> scope, const std::vector<int>& domains);
};

}  // namespace mintri

#endif  // MINTRI_INFERENCE_FACTOR_H_
