#include "src/localize/preprocess.h"

#include "src/common/union_find.h"

namespace detector {

PreprocessedObservations Preprocess(ObservationView obs, const PreprocessOptions& options) {
  PreprocessedObservations result;
  result.valid.assign(obs.size(), 0);
  result.lossy.assign(obs.size(), 0);
  for (size_t i = 0; i < obs.size(); ++i) {
    if (!IsValidPath(obs[i])) {
      continue;
    }
    result.valid[i] = 1;
    ++result.num_valid;
    if (IsLossyPath(obs[i], options)) {
      result.lossy[i] = 1;
      ++result.num_lossy;
    }
  }
  return result;
}

MatrixPartition BuildMatrixPartition(const ProbeMatrix& matrix) {
  MatrixPartition part;
  part.num_paths = matrix.NumPaths();
  part.num_links = matrix.NumLinks();
  const size_t n = static_cast<size_t>(part.num_links);

  UnionFind uf(n);
  for (size_t p = 0; p < part.num_paths; ++p) {
    int32_t first = -1;
    for (const LinkId link : matrix.paths().Links(static_cast<PathId>(p))) {
      const int32_t dense = matrix.links().Dense(link);
      if (dense < 0) {
        continue;  // outside the monitored domain
      }
      if (first < 0) {
        first = dense;
      } else {
        uf.Union(static_cast<size_t>(first), static_cast<size_t>(dense));
      }
    }
  }

  // Component ids in ascending dense-link order of each component's first link.
  std::vector<int32_t> id_of_root(n, -1);
  part.component_of_link.assign(n, -1);
  for (size_t l = 0; l < n; ++l) {
    const size_t root = uf.Find(l);
    if (id_of_root[root] < 0) {
      id_of_root[root] = part.num_components++;
      part.links_of_component.emplace_back();
    }
    part.component_of_link[l] = id_of_root[root];
    part.links_of_component[static_cast<size_t>(id_of_root[root])].push_back(
        static_cast<int32_t>(l));
  }

  part.component_of_path.assign(part.num_paths, -1);
  part.paths_of_component.resize(static_cast<size_t>(part.num_components));
  for (size_t p = 0; p < part.num_paths; ++p) {
    for (const LinkId link : matrix.paths().Links(static_cast<PathId>(p))) {
      const int32_t dense = matrix.links().Dense(link);
      if (dense >= 0) {
        const int32_t c = part.component_of_link[static_cast<size_t>(dense)];
        part.component_of_path[p] = c;
        part.paths_of_component[static_cast<size_t>(c)].push_back(static_cast<PathId>(p));
        break;
      }
    }
  }
  return part;
}

}  // namespace detector
