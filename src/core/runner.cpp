#include "core/runner.hpp"

namespace avglocal::core {

Measurement run_assignment(const graph::Graph& g, const graph::IdAssignment& ids,
                           const local::ViewAlgorithmFactory& algorithm,
                           local::ViewSemantics semantics) {
  local::ViewEngineOptions options;
  options.semantics = semantics;
  return measure(local::run_views(g, ids, algorithm, options));
}

}  // namespace avglocal::core
