#include "inference/factor.h"

#include <cstddef>
#include <utility>

namespace mintri {

Factor Factor::Ones(std::vector<int> scope, const std::vector<int>& domains) {
  Factor f;
  f.scope = std::move(scope);
  size_t size = 1;
  for (int v : f.scope) size *= static_cast<size_t>(domains[v]);
  f.table.assign(size, 1.0);
  return f;
}

}  // namespace mintri
