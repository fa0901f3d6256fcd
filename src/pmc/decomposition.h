// Observation 1 (§4.3): if the path-link bipartite graph of the routing matrix splits into
// connected components, PMC decomposes into independent subproblems that can be solved in
// parallel. In a fat-tree every via-core path touches only the links of one core group (the
// aggregation index is the same in the source and destination pod), so the problem splits into
// k/2 components; VL2 and BCube do not decompose (matching the paper's Table 2).
//
// The same structure serves localization (§5.3): the greedy hitting-set never interacts across
// components, so PLL re-scores only the components of a probe matrix whose observations
// changed (PllLocalizer::LocalizeIncremental decomposes matrix.paths() over matrix.links()).
#ifndef SRC_PMC_DECOMPOSITION_H_
#define SRC_PMC_DECOMPOSITION_H_

#include <vector>

#include "src/pmc/probe_matrix.h"
#include "src/routing/path_store.h"

namespace detector {

// Component ids ascend with each component's lowest dense link id, so the decomposition, and
// any merge over it, is deterministic for a given path store and link domain.
struct Decomposition {
  struct Component {
    std::vector<PathId> path_ids;       // candidate paths in this component, ascending
    std::vector<int32_t> dense_links;   // global dense link ids, ascending
  };

  std::vector<Component> components;
  // Monitored links that no candidate path touches: alpha-coverage is impossible for these.
  std::vector<int32_t> uncoverable_links;
  // The component lists inverted, by dense link and by path id. -1 where no component
  // applies: an uncoverable link, or a path with no link in the domain (an empty, vacated
  // matrix slot; SingleComponent lists every path in its one component).
  std::vector<int32_t> component_of_link;
  std::vector<int32_t> component_of_path;
};

Decomposition DecomposePathLinkGraph(const PathStore& candidates, const LinkIndex& links);

// The trivial decomposition: one component holding every candidate path and every coverable
// link (used when the optimization is disabled, e.g. the strawman rows of Table 2).
Decomposition SingleComponent(const PathStore& candidates, const LinkIndex& links);

}  // namespace detector

#endif  // SRC_PMC_DECOMPOSITION_H_
