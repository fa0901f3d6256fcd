#include "src/localize/preprocess.h"

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

}  // namespace detector
