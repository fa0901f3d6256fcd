#include "src/pmc/decomposition.h"

#include "src/common/union_find.h"

namespace detector {

Decomposition DecomposePathLinkGraph(const PathStore& candidates, const LinkIndex& links) {
  const size_t n = static_cast<size_t>(links.num_links());
  UnionFind uf(n);
  std::vector<uint8_t> touched(n, 0);

  for (size_t p = 0; p < candidates.size(); ++p) {
    int32_t first_dense = -1;
    for (LinkId link : candidates.Links(static_cast<PathId>(p))) {
      const int32_t dense = links.Dense(link);
      if (dense < 0) {
        continue;  // unmonitored link (e.g. server link); not part of the problem
      }
      touched[static_cast<size_t>(dense)] = 1;
      if (first_dense < 0) {
        first_dense = dense;
      } else {
        uf.Union(static_cast<size_t>(first_dense), static_cast<size_t>(dense));
      }
    }
  }

  Decomposition result;
  result.component_of_link.assign(n, -1);
  std::vector<int32_t> id_of_root(n, -1);
  for (size_t d = 0; d < n; ++d) {
    if (!touched[d]) {
      result.uncoverable_links.push_back(static_cast<int32_t>(d));
      continue;
    }
    const size_t root = uf.Find(d);
    if (id_of_root[root] < 0) {
      id_of_root[root] = static_cast<int32_t>(result.components.size());
      result.components.emplace_back();
    }
    result.component_of_link[d] = id_of_root[root];
    result.components[static_cast<size_t>(id_of_root[root])].dense_links.push_back(
        static_cast<int32_t>(d));
  }

  result.component_of_path.assign(candidates.size(), -1);
  for (size_t p = 0; p < candidates.size(); ++p) {
    for (LinkId link : candidates.Links(static_cast<PathId>(p))) {
      const int32_t dense = links.Dense(link);
      if (dense >= 0) {
        const int32_t c = result.component_of_link[static_cast<size_t>(dense)];
        result.component_of_path[p] = c;
        result.components[static_cast<size_t>(c)].path_ids.push_back(static_cast<PathId>(p));
        break;  // one component per path: all its links share the component by construction
      }
    }
  }
  return result;
}

Decomposition SingleComponent(const PathStore& candidates, const LinkIndex& links) {
  const size_t n = static_cast<size_t>(links.num_links());
  std::vector<uint8_t> touched(n, 0);
  for (size_t p = 0; p < candidates.size(); ++p) {
    for (LinkId link : candidates.Links(static_cast<PathId>(p))) {
      const int32_t dense = links.Dense(link);
      if (dense >= 0) {
        touched[static_cast<size_t>(dense)] = 1;
      }
    }
  }
  Decomposition result;
  result.components.emplace_back();
  Decomposition::Component& comp = result.components.back();
  comp.path_ids.resize(candidates.size());
  for (size_t p = 0; p < candidates.size(); ++p) {
    comp.path_ids[p] = static_cast<PathId>(p);
  }
  result.component_of_path.assign(candidates.size(), 0);
  result.component_of_link.assign(n, -1);
  for (size_t d = 0; d < n; ++d) {
    if (touched[d]) {
      comp.dense_links.push_back(static_cast<int32_t>(d));
      result.component_of_link[d] = 0;
    } else {
      result.uncoverable_links.push_back(static_cast<int32_t>(d));
    }
  }
  return result;
}

}  // namespace detector
